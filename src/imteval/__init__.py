"""Drop-based system-level simulator and IMT-2020 compliance checker.

Evaluates candidate radio configurations against the ITU minimum
performance requirements: spectral efficiency, connection density,
reliability, mobility and user-experienced data rate.
"""

__version__ = "0.1.0"

from .scenario import (  # noqa: F401
    EvaluationConfig,
    TestEnvironment,
    builtin_requirements,
    load_config,
    preset,
)

__all__ = [
    "EvaluationConfig",
    "TestEnvironment",
    "builtin_requirements",
    "load_config",
    "preset",
    "__version__",
]
