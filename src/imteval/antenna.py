"""Antenna element patterns and planar panel arrays.

Angles follow one convention everywhere: azimuth in degrees within [-180, 180]
measured from the array boresight (+x axis), zenith in degrees within [0, 180]
measured from the +z axis (90 deg = horizon). Element spacings are in
wavelengths; horizontal columns run along +y, vertical rows along +z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ElementPattern:
    """Parametric single-element radiation pattern.

    The parametric form attenuates quadratically in azimuth and zenith with
    3 dB beamwidths ``h_3db_deg``/``v_3db_deg``, clips the azimuth cut at the
    front-to-back ratio ``front_back_db`` (A_m), the zenith cut at
    ``sidelobe_db`` (SLA_v), and the combined attenuation again at A_m.
    """

    max_gain_dbi: float = 8.0
    h_3db_deg: float = 65.0
    v_3db_deg: float = 65.0
    front_back_db: float = 30.0
    sidelobe_db: float = 30.0


def element_gain(pattern: ElementPattern, azimuth_deg, zenith_deg, out=None):
    """Element gain in dBi at the given angles (scalar or ndarray), into ``out``, which may
    be either angle array, when given. Raises DomainError if any azimuth is outside
    [-180, 180] (checked first), any zenith outside [0, 180], or any angle is NaN."""
    az = _check_range(azimuth_deg, -180.0, 180.0, "azimuth")
    return _combine(pattern, az, vertical_attenuation(pattern, zenith_deg), out)


def _check_range(angle_deg, lo: float, hi: float, name: str) -> np.ndarray:
    angle = np.asarray(angle_deg, dtype=float)
    # min and max propagate NaN, and a comparison with NaN is false
    if angle.size and not (lo <= angle.min() and angle.max() <= hi):
        raise DomainError(f"{name} out of [{lo:g}, {hi:g}]: {angle_deg}")
    return angle


def vertical_attenuation(pattern: ElementPattern, zenith_deg, out=None) -> np.ndarray:
    """The zenith cut's attenuation A_v (dB, positive) as an ndarray; ``out`` may
    be the zenith array. Raises DomainError if any zenith is outside [0, 180] or NaN."""
    zen = _check_range(zenith_deg, 0.0, 180.0, "zenith")
    vertical = np.subtract(zen, 90.0, out=np.empty(zen.shape) if out is None else out)
    return _cut_attenuation(vertical, pattern.v_3db_deg, pattern.sidelobe_db, out=vertical)


def combined_gain(pattern: ElementPattern, azimuth_deg, vertical_db, out=None):
    """Gain in dBi, max gain - min(A_h + A_v, A_m), from the azimuth and ``vertical_attenuation``;
    ``out`` may be the azimuth array. Raises DomainError if any azimuth is outside [-180, 180]."""
    return _combine(pattern, _check_range(azimuth_deg, -180.0, 180.0, "azimuth"), vertical_db, out)


def _combine(pattern: ElementPattern, az: np.ndarray, vertical_db, out):
    """``combined_gain`` on an azimuth array already checked."""
    if out is None:
        out = np.empty(np.broadcast(az, vertical_db).shape)
    att = _cut_attenuation(az, pattern.h_3db_deg, pattern.front_back_db, out=out)
    att += vertical_db
    np.minimum(att, pattern.front_back_db, out=att)
    np.subtract(pattern.max_gain_dbi, att, out=out)
    return out if out.ndim else float(out)


def _cut_attenuation(angle, beamwidth_deg: float, cap_db: float, out: np.ndarray) -> np.ndarray:
    """min(12 (angle / beamwidth)^2, cap) in dB, written to ``out``."""
    np.divide(angle, beamwidth_deg, out=out)
    np.square(out, out=out)
    np.multiply(out, 12.0, out=out)
    return np.minimum(out, cap_db, out=out)


@dataclass(frozen=True)
class ArrayConfig:
    """Panel array geometry: (M, N, P, Mg, Ng; Mp, Np) plus spacings and pointing.

    m x n elements per panel and polarization, p polarizations, mg x ng
    panels, and mp x np ports per panel per polarization, which partition
    the m x n grid. Spacings are in wavelengths. p, mp, np, mg and ng set
    ``n_ports``, the link budget's MRC branch count, and the BS
    ``downtilt_deg`` offsets the zenith in ``engine.compute_coupling``.
    ``scenario.validate`` holds the fields no drop reads to the preset
    (``scenario._PINNED``) and applies the counts' and ports' rules.
    """

    m: int = 1
    n: int = 1
    p: int = 1
    mg: int = 1
    ng: int = 1
    mp: int = 1
    np: int = 1
    element_spacing_h: float = 0.5
    element_spacing_v: float = 0.8
    bearing_deg: float = 0.0
    downtilt_deg: float = 0.0

    @property
    def n_elements(self) -> int:
        return self.m * self.n * self.p * self.mg * self.ng

    @property
    def n_ports(self) -> int:
        return self.mp * self.np * self.p * self.mg * self.ng

    def element_index(self) -> np.ndarray:
        """(5, n_elements) panel row, panel column, row, column and polarization
        of each element, in the one order every per-element quantity follows:
        panels row-major (mg, ng), then elements row-major (m, n), polarization
        fastest."""
        return np.indices((self.mg, self.ng, self.m, self.n, self.p)).reshape(5, -1)

    def element_positions_wl(self) -> np.ndarray:
        """(n_elements, 3) element positions in wavelengths, boresight +x.
        Co-polarized pairs are co-located."""
        g_v, g_h, row, col, _ = self.element_index()
        return np.column_stack([np.zeros(self.n_elements),
                                (g_h * self.n + col) * self.element_spacing_h,
                                (g_v * self.m + row) * self.element_spacing_v])

    def polarization_slants_deg(self) -> np.ndarray:
        """Per-element polarization slant angle: 0 for p=1, +/-45 for p=2."""
        if self.p == 1:
            return np.zeros(self.n_elements)
        return np.where(self.element_index()[4] == 0, 45.0, -45.0)


def array_response(config: ArrayConfig, azimuth_deg, zenith_deg) -> np.ndarray:
    """Unit-modulus steering vector(s) for the planar array.

    Scalar angles give shape (n_elements,); array angles of shape (k,) give
    (n_elements, k). Spacings are in wavelengths, so the response does not
    depend on the carrier.
    """
    az = np.atleast_1d(np.asarray(azimuth_deg, dtype=float))
    zen = np.atleast_1d(np.asarray(zenith_deg, dtype=float))
    az, zen = np.broadcast_arrays(az, zen)
    az_r = np.radians(az)
    zen_r = np.radians(zen)
    # unit direction vectors, one per angle
    direction = np.stack(
        [np.sin(zen_r) * np.cos(az_r), np.sin(zen_r) * np.sin(az_r), np.cos(zen_r)]
    )
    pos = config.element_positions_wl()  # already in wavelengths
    phase = 2.0 * np.pi * (pos @ direction)
    resp = np.exp(1j * phase)
    if np.isscalar(azimuth_deg) and np.isscalar(zenith_deg):
        return resp[:, 0]
    return resp
