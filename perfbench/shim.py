"""numpy 2.x compatibility alias, applied in the benchmark process only.

numpy 2.x removed ``np.trapz``. attrfuse at its first commits evaluates
``getattr(np, "trapezoid", np.trapz)``, which touches ``np.trapz`` eagerly, so
``attrfuse.experiments`` and ``attrfuse.cli`` fail to import. Aliasing the
missing name lets them import. The measured code path is unchanged, because
``np.trapezoid`` exists and is what attrfuse resolves either way.
"""
import numpy as np


def apply() -> bool:
    """Alias ``np.trapz`` to ``np.trapezoid`` when it is missing; return whether it was."""
    if hasattr(np, "trapz"):
        return False
    np.trapz = np.trapezoid
    return True
