"""Argument checks of the library that no other test reaches, each with the
message it raises."""

import pytest

from nodalmoduli.curves import NodalCurve, SheafClass, dim_moduli_smooth
from nodalmoduli.gluing import GluingDatum
from nodalmoduli.moduli import component_dimension, fixed_det_fiber_dimension
from nodalmoduli.stability import nonstable_locus_codim_bound

CURVE = NodalCurve(2, 3)

# name -> (the refused call, its message)
REFUSALS = {
    "sheaf_negative_rank": (
        lambda: SheafClass(-1, 2, 0), "ranks must be >= 0, got (-1, 2)"
    ),
    "smooth_moduli_rank_zero": (
        lambda: dim_moduli_smooth(0, 1, 2), "rank must be >= 1, got 0"
    ),
    "component_rank_zero": (
        lambda: component_dimension(CURVE, 0), "rank must be >= 1, got 0"
    ),
    "fixed_det_fiber_rank_zero": (
        lambda: fixed_det_fiber_dimension(CURVE, 0), "rank must be >= 1, got 0"
    ),
    "codim_bound_genus_zero": (
        lambda: nonstable_locus_codim_bound(3, 0, 1), "genus must be >= 1, got 0"
    ),
    "gluing_without_k_or_sigma": (
        lambda: GluingDatum(2, None, 0, 0),
        "either k or an explicit sigma matrix is required",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_message(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
