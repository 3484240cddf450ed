"""Geometry-based stochastic channel: ``model`` holds the LOS and pathloss
curves the drop loop evaluates, ``profiles`` the parameter tables
(``profiles.ini``), ``smallscale`` the per-link generator that only
acceptance criterion 3 calls. Import each name from its module."""
