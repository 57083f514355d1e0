import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from apscast.array_model import build_function_set
from apscast.bounds_analysis import RESIDUAL_FLOOR, compute_bounds
from apscast.conversion import build_conversion_operator, build_gram_system
from apscast.errors import ContractError, NumericalConsistencyError
from apscast.experiments import write_bounds_csv
from apscast.numerics import PinvSpec
from apscast.records import UlaConfig

PI = math.pi
HALF_PI = math.pi / 2


class TestComputeBounds:
    def test_exact_member_slot_one(self, gs_ref_no_si):
        """g_d[1] is the constant function and sits in the uplink span."""
        report = compute_bounds(gs_ref_no_si)
        assert report.residuals[0] == 0.0
        assert report.bounds_pv0[0] == 0.0

    def test_zero_function_slot(self, gs_ref_no_si):
        n = gs_ref_no_si.function_set.n
        report = compute_bounds(gs_ref_no_si)
        assert report.residuals[n] == 0.0 and report.norms_sq[n] == 0.0

    def test_frequency_coincidence_slots_are_exact(self, gs_ref_no_si):
        """d f_d / c = 0.525 * 19/18, so downlink slot 19 equals uplink slot 20
        exactly (lag 18 * 19/18 = 19); same on the imaginary branch."""
        report = compute_bounds(gs_ref_no_si)
        n = gs_ref_no_si.function_set.n
        assert report.residuals[18] == 0.0
        assert report.residuals[n + 18] == 0.0

    def test_mixed_magnitudes_without_support_info(self, gs_ref_no_si):
        """Grating-lobe regime: some entries certified, others O(1)."""
        r = compute_bounds(gs_ref_no_si).residuals
        assert r.min() == 0.0
        assert np.sort(r)[3] < 1e-6          # a few near-exact entries
        assert r.max() > 1.0                  # and some unrecoverable ones

    def test_bound_relationships(self, gs_ref_si):
        report = compute_bounds(gs_ref_si, B=1.0)
        np.testing.assert_array_equal(report.bounds_generic, 2.0 * report.bounds_pv0)
        np.testing.assert_array_equal(report.bounds_pv0, report.residuals)

    def test_scale_covariance_in_B(self, gs_ref_si):
        r1 = compute_bounds(gs_ref_si, B=1.0)
        r2 = compute_bounds(gs_ref_si, B=2.0)
        np.testing.assert_array_equal(r2.bounds_pv0, 2.0 * r1.bounds_pv0)
        np.testing.assert_array_equal(r2.bounds_generic, 2.0 * r1.bounds_generic)

    def test_residual_never_exceeds_norm(self, gs_ref_si):
        report = compute_bounds(gs_ref_si)
        for residual, norm_sq_k in zip(report.residuals, report.norms_sq):
            assert residual <= math.sqrt(norm_sq_k) + 1e-9

    def test_entry_bookkeeping(self, tmp_path, gs_ref_no_si):
        path = tmp_path / "bounds.csv"
        write_bounds_csv(str(path), compute_bounds(gs_ref_no_si))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        n = gs_ref_no_si.function_set.n
        assert rows[0]["entry_kind"] == "real" and rows[0]["lag"] == "0"
        assert rows[n]["entry_kind"] == "imag" and rows[n]["lag"] == "0"
        assert rows[2 * n - 1]["lag"] == str(n - 1)

    def test_invalid_B(self, gs_ref_no_si):
        with pytest.raises(ContractError):
            compute_bounds(gs_ref_no_si, B=0.0)

    def test_residual_above_norm_names_slot(self, gs_ref_no_si):
        """A residual larger than its kernel's norm is a numerical failure;
        the message names the first such slot."""
        residuals_sq = gs_ref_no_si.residuals_sq.copy()
        residuals_sq[[6, 40]] = 4.0 * gs_ref_no_si.downlink_norms_sq[[6, 40]] + 1.0
        gs = dataclasses.replace(gs_ref_no_si, residuals_sq=residuals_sq)
        with pytest.raises(NumericalConsistencyError,
                           match=r"exceeds \|\|g_d\|\| for slot 7$"):
            compute_bounds(gs)

    def test_reuses_precomputed_operator(self, gs_ref_si):
        op = build_conversion_operator(gs_ref_si)
        a = compute_bounds(gs_ref_si, op=op)
        b = compute_bounds(gs_ref_si)
        np.testing.assert_array_equal(a.residuals, b.residuals)

    def test_small_cutoff_bounds_hold(self, reference_cfg, c_s_right):
        """At rel_cutoff 1e-10 the SI residuals of exact-member slots are
        small but nonzero; reporting them as 0 would void their bounds."""
        from apscast.experiments import random_aps_model, synthesize_r_vector

        gs = build_gram_system(build_function_set(reference_cfg, c_s_right),
                               pinv=PinvSpec(rel_cutoff=1e-10))
        op = build_conversion_operator(gs)
        bounds = compute_bounds(gs).bounds_pv0
        fs = gs.function_set
        rng = np.random.default_rng(1010)
        for _ in range(20):
            aps = random_aps_model(rng, c_s_right)
            r_u = synthesize_r_vector(aps, fs.uplink)
            r_d = synthesize_r_vector(aps, fs.downlink)
            assert np.all(np.abs(op.A @ r_u - r_d) <= bounds + 1e-7)

    def test_config_hash_distinguishes_support(self, gs_ref_no_si, gs_ref_si):
        a = compute_bounds(gs_ref_no_si)
        b = compute_bounds(gs_ref_si)
        assert a.config_hash != b.config_hash
        assert a.config_hash == compute_bounds(gs_ref_no_si).config_hash


class TestChainSharpness:
    def test_error_within_spectrum_residual_times_entry_residual(
        self, gs_ref_si, rng, c_s_right,
    ):
        """The realized error also respects the sharper factored bound
        ||rho - P(rho)|| * residual_k, with the first factor computed from
        the spectrum's own inner products."""
        from apscast.experiments import random_aps_model, synthesize_r_vector
        from apscast.hilbert_space import clamp_residual_sq

        fs = gs_ref_si.function_set
        op = build_conversion_operator(gs_ref_si)
        report = compute_bounds(gs_ref_si)
        for _ in range(5):
            aps = random_aps_model(rng, c_s_right)
            r_u = synthesize_r_vector(aps, fs.uplink)
            r_d = synthesize_r_vector(aps, fs.downlink)
            err = np.abs(op.A @ r_u - r_d)
            z = np.concatenate([r_u, np.zeros(len(fs.constraints))])
            rad = clamp_residual_sq(aps.norm() ** 2 - gs_ref_si.quad_form(z))
            rho_residual = math.sqrt(rad)
            assert rho_residual <= aps.norm() + 1e-9
            assert np.all(err <= rho_residual * report.residuals + 1e-7)


class TestBoundTightening:
    def test_clean_system_monotone(self, small_cfg, c_s_right):
        """At 4 antennas the support-information Gram keeps every genuine
        direction, so residuals shrink entrywise."""
        gs_no = build_gram_system(build_function_set(small_cfg, None))
        gs_si = build_gram_system(build_function_set(small_cfg, c_s_right))
        r_no, r_si = compute_bounds(gs_no), compute_bounds(gs_si)
        assert np.all(r_si.residuals <= r_no.residuals + 1e-9)
        assert r_si.residuals[0] == 0.0  # k = 1 stays exact


class TestCsvEmission:
    def test_schema_and_round_trip(self, tmp_path, gs_ref_no_si):
        report = compute_bounds(gs_ref_no_si)
        path = tmp_path / "bounds.csv"
        write_bounds_csv(str(path), report)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        assert set(rows[0]) == {"k", "entry_kind", "lag", "residual",
                                "bound_generic", "bound_pv0", "norm_gdk_sq"}
        # repr formatting round-trips exactly
        for i, row in enumerate(rows):
            assert float(row["residual"]) == report.residuals[i]
            assert int(row["k"]) == i + 1


def _per_record_rows(gs, B):
    """Slot records as the per-record report formatted them: one Python
    float per field, the slot labels stored with each record."""
    n = gs.function_set.n
    rows = []
    for idx in range(2 * n):
        norm_sq_k = float(gs.downlink_norms_sq[idx])
        residual = math.sqrt(float(gs.residuals_sq[idx]))
        if residual <= RESIDUAL_FLOOR * math.sqrt(norm_sq_k):
            residual = 0.0
        k = idx + 1
        rows.append([k, "real" if k <= n else "imag",
                     (k - 1) if k <= n else (k - n - 1), repr(residual),
                     repr(2.0 * B * residual), repr(B * residual), repr(norm_sq_k)])
    return rows


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("B", [1.0, 2.5])
@pytest.mark.parametrize("n", [1, 2, 30])
class TestCsvMatchesPerRecordFormat:
    def test_bounds_csv(self, tmp_path, n, B, c_s_right):
        for c_s in (None, c_s_right):
            gs = build_gram_system(build_function_set(UlaConfig.reference(n_antennas=n), c_s))
            path = tmp_path / "bounds.csv"
            write_bounds_csv(str(path), compute_bounds(gs, B))
            expected = _csv_bytes(["k", "entry_kind", "lag", "residual", "bound_generic",
                                   "bound_pv0", "norm_gdk_sq"], _per_record_rows(gs, B))
            assert path.read_bytes() == expected

    def test_fig1_csv(self, tmp_path, n, B, c_s_right):
        from apscast.experiments import run_fig1, write_fig1_csv

        cfg = UlaConfig.reference(n_antennas=n)
        path = tmp_path / "fig1.csv"
        write_fig1_csv(str(path), run_fig1(cfg, c_s_right, B))
        no_si, si = (_per_record_rows(build_gram_system(build_function_set(cfg, c_s)), B)
                     for c_s in (None, c_s_right))
        expected = _csv_bytes(["k", "bound_no_si", "bound_si"],
                              [[e0[0], e0[5], e1[5]] for e0, e1 in zip(no_si, si)])
        assert path.read_bytes() == expected
