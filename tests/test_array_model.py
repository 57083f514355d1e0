import dataclasses
import math
import typing

import numpy as np
import pytest

from apscast.array_model import build_function_set
from apscast.documents import ARRAY_DEFAULTS, ARRAY_FIELDS
from apscast.errors import ContractError
from apscast.hilbert_space import Trig, inner_product, norm_sq
from apscast.numerics import bessel_j0
from apscast.records import SupportSet, UlaConfig

PI = math.pi
HALF_PI = math.pi / 2


class TestUlaConfig:
    def test_reference_unitless_spacings(self, reference_cfg):
        assert reference_cfg.spacing_up == pytest.approx(0.525, abs=1e-15)
        assert reference_cfg.spacing_down == pytest.approx(0.525 * 19 / 18, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ContractError):
            UlaConfig(n_antennas=0, spacing=0.1, f_up=1e9, f_down=1e9)
        with pytest.raises(ContractError):
            UlaConfig(n_antennas=2, spacing=-0.1, f_up=1e9, f_down=1e9)

    def test_document_field_table_matches_declaration(self):
        """Operator documents read the array section from a field table
        beside ``UlaConfig``; it names the same fields, in order, with the
        same kinds and defaults."""
        fields = dataclasses.fields(UlaConfig)
        assert ARRAY_FIELDS == typing.get_type_hints(UlaConfig)
        assert list(ARRAY_FIELDS) == [f.name for f in fields]
        assert ARRAY_DEFAULTS == {f.name: f.default for f in fields
                                  if f.default is not dataclasses.MISSING}


class TestBuildFunctionSet:
    def test_single_antenna(self):
        cfg = UlaConfig(n_antennas=1, spacing=0.1, f_up=1e9, f_down=2e9)
        fs = build_function_set(cfg)
        assert len(fs.uplink) == 2 and len(fs.downlink) == 2
        assert fs.uplink[0].trig is Trig.COSINE and fs.uplink[0].omega == 0.0
        assert fs.uplink[1].trig is Trig.SINE and fs.uplink[1].omega == 0.0
        assert fs.uplink[1].is_zero()
        assert fs.constraints == ()

    def test_reference_omegas(self, reference_cfg):
        fs = build_function_set(reference_cfg)
        n = reference_cfg.n_antennas
        for k in range(n):
            assert fs.uplink[k].omega == pytest.approx(2 * PI * 0.525 * k, rel=1e-15)
            assert fs.uplink[n + k].omega == fs.uplink[k].omega
            assert fs.downlink[k].omega == pytest.approx(
                2 * PI * 0.525 * (19 / 18) * k, rel=1e-15)

    def test_zero_slot_norms(self, reference_cfg):
        fs = build_function_set(reference_cfg)
        n = reference_cfg.n_antennas
        assert norm_sq(fs.uplink[n]) == 0.0
        assert norm_sq(fs.downlink[n]) == 0.0

    def test_constraints_masked_on_support(self, reference_cfg, c_s_right):
        fs = build_function_set(reference_cfg, c_s_right)
        assert len(fs.constraints) == 2 * reference_cfg.n_antennas
        theta = np.linspace(0.01, HALF_PI - 0.01, 7)
        for v in fs.constraints:
            np.testing.assert_array_equal(v.evaluate(theta), 0.0)
        # outside the support, the constraint equals the downlink function
        theta = np.linspace(-HALF_PI, -0.01, 7)
        for v, g in zip(fs.constraints, fs.downlink):
            np.testing.assert_allclose(v.evaluate(theta), g.evaluate(theta))

    def test_empty_support_means_no_constraints(self, reference_cfg):
        fs = build_function_set(reference_cfg, SupportSet.empty())
        assert fs.constraints == ()
        assert fs.support is None

    def test_basis_ordering(self, reference_cfg, c_s_right):
        fs = build_function_set(reference_cfg, c_s_right)
        assert fs.basis[: 2 * fs.n] == fs.uplink
        assert fs.basis[2 * fs.n:] == fs.constraints


class TestBesselKernelConsistency:
    """Inner products of the function set must reproduce the Bessel closed
    forms with x = 2 pi d (f_u/c)(n-m) and y = 2 pi d (f_u/c)(n+m-2)."""

    def test_gram_entries_match_closed_form(self):
        cfg = UlaConfig.reference(n_antennas=8)
        fs = build_function_set(cfg)
        n = cfg.n_antennas
        s = cfg.spacing_up
        for i in range(n):
            for j in range(n):
                x = 2 * PI * s * (i - j)
                y = 2 * PI * s * (i + j)
                got_r = inner_product(fs.uplink[i], fs.uplink[j])
                got_j = inner_product(fs.uplink[n + i], fs.uplink[n + j])
                assert abs(got_r - (PI / 2) * (bessel_j0(x) + bessel_j0(y))) <= 1e-10
                assert abs(got_j - (PI / 2) * (bessel_j0(x) - bessel_j0(y))) <= 1e-10

    def test_cross_frequency_entries(self):
        cfg = UlaConfig.reference(n_antennas=8)
        fs = build_function_set(cfg)
        n = cfg.n_antennas
        su, sd = cfg.spacing_up, cfg.spacing_down
        for i in range(n):
            for j in range(n):
                p = 2 * PI * (su * i - sd * j)
                q = 2 * PI * (su * i + sd * j)
                got_r = inner_product(fs.uplink[i], fs.downlink[j])
                got_j = inner_product(fs.uplink[n + i], fs.downlink[n + j])
                assert abs(got_r - (PI / 2) * (bessel_j0(p) + bessel_j0(q))) <= 1e-10
                assert abs(got_j - (PI / 2) * (bessel_j0(p) - bessel_j0(q))) <= 1e-10

