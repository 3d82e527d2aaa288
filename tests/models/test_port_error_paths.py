"""Port misuse raises loudly, matching what the real models reject."""

import numpy as np
import pytest

from repro.core.deck import default_deck
from repro.models.base import make_port
from repro.models.plan import KernelCall
from repro.util.errors import ModelError


def port_for(model: str):
    return make_port(model, default_deck(n=8).grid())


class TestResidencyMisuse:
    @pytest.mark.parametrize("model", ["openmp4", "openacc"])
    def test_double_begin_solve(self, model):
        port = port_for(model)
        port.begin_solve()
        with pytest.raises(ModelError, match="already open"):
            port.begin_solve()
        port.end_solve()

    @pytest.mark.parametrize("model", ["openmp4", "openacc"])
    def test_end_without_begin(self, model):
        with pytest.raises(ModelError, match="no open"):
            port_for(model).end_solve()

    @pytest.mark.parametrize("model", ["openmp4", "openacc"])
    def test_data_region_scopes_the_device_environment(self, model):
        port = port_for(model)
        port.set_state(
            np.full(port.grid.shape, 2.0), np.full(port.grid.shape, 1.0)
        )
        port.dispatch(KernelCall("set_field"))
        port.begin_solve()
        assert port.env.mapped_names()  # arrays resident during the solve
        port.dispatch(KernelCall("tea_leaf_init", (0.004, "conductivity")))
        port.end_solve()
        assert port.env.mapped_names() == []  # scope closed, all unmapped


class TestStateValidation:
    @pytest.mark.parametrize(
        "model", ["openmp-f90", "kokkos", "cuda", "opencl", "raja"]
    )
    def test_wrong_shape_state_rejected(self, model):
        port = port_for(model)
        with pytest.raises(ModelError, match="shape"):
            port.set_state(np.zeros((3, 3)), np.zeros((3, 3)))


class TestFieldNameErrors:
    @pytest.mark.parametrize("model", ["openmp-f90", "kokkos", "cuda", "opencl"])
    def test_unknown_field_read(self, model):
        port = port_for(model)
        with pytest.raises(KeyError):
            port.read_field("not_a_field")


class TestHaloDepthGuards:
    def test_update_halo_depth_bounds(self):
        port = port_for("openmp-f90")
        with pytest.raises(ValueError):
            port.update_halo(("u",), depth=0)
        with pytest.raises(ValueError):
            port.update_halo(("u",), depth=3)  # beyond the 2-deep halo
