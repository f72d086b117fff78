"""Application drivers: session loop, heat stepper, power-flow Newton."""

import numpy as np
import pytest

from repro.apps import AppSession, HeatStepper, PowerFlowNewton
from repro.matrices import grid2d
from repro.serve import StalenessPolicy


class TestAppSession:
    def test_step_records_and_summary(self):
        sess = AppSession(grid2d(8))
        b = np.linspace(0.0, 1.0, 64)
        rec = sess.step(b)
        assert rec.step == 0
        assert rec.outcome == "served"
        assert rec.update == "none"
        assert rec.x is not None and rec.x.shape == (64,)
        assert rec.virtual_time > 0
        s = sess.summary()
        assert s["steps"] == 1
        assert s["outcomes"] == {"served": 1}
        assert s["cold_builds"] == 1
        assert s["steps_per_sec"] > 0

    def test_value_update_flows_through(self):
        sess = AppSession(grid2d(8), staleness=StalenessPolicy(mode="refactor"))
        b = np.ones(64)
        sess.step(b)
        rec = sess.step(b, A_new=grid2d(8, convection=0.4))
        assert rec.update == "values_changed"
        assert sess.shard.n_refactors == 1
        assert sess.summary()["refactors"] == 1

    def test_to_dict_omits_solution(self):
        sess = AppSession(grid2d(6))
        rec = sess.step(np.ones(36))
        d = rec.to_dict()
        assert "x" not in d
        assert d["outcome"] == "served"

    def test_iteration_curve_tracks_history(self):
        sess = AppSession(grid2d(6))
        for _ in range(3):
            sess.step(np.ones(36))
        curve = sess.iteration_curve()
        assert len(curve) == 3
        assert all(isinstance(c, int) and c > 0 for c in curve)


class TestHeatStepper:
    def test_pattern_is_fixed_values_drift(self):
        hs = HeatStepper(6)
        from repro.kernels.cache import pattern_fingerprint

        fps = {pattern_fingerprint(hs.matrix(t)) for t in range(5)}
        assert len(fps) == 1  # one stencil forever
        vals = {hs.matrix(t).data.tobytes() for t in range(5)}
        assert len(vals) == 5  # every step's values differ

    def test_every_step_is_a_value_only_update(self):
        hs = HeatStepper(6, staleness=StalenessPolicy(mode="refactor"))
        records = hs.run(4)
        assert all(r.update == "values_changed" for r in records)
        assert all(r.outcome == "served" for r in records)
        # step 1's update lands before anything was factored, so the
        # cold build absorbs it; every later step is a pure revalue
        assert hs.session.shard.n_cold == 1
        assert hs.session.shard.n_refactors == 3

    def test_replays_bit_identically(self):
        def one_run():
            hs = HeatStepper(6, seed=3, staleness=StalenessPolicy(mode="refactor"))
            recs = hs.run(4)
            return [r.x.tobytes() for r in recs], hs.summary()["virtual_total"]

        assert one_run() == one_run()

    def test_refactor_and_cold_produce_identical_trajectories(self):
        runs = {}
        for mode in ("cold", "refactor"):
            hs = HeatStepper(6, seed=1, staleness=StalenessPolicy(mode=mode))
            runs[mode] = hs.run(4)
        for rc, rr in zip(runs["cold"], runs["refactor"]):
            assert np.array_equal(rc.x, rr.x)
            assert rc.iterations == rr.iterations

    def test_value_only_step_hashes_no_pattern(self, monkeypatch):
        """Every step's matrix shares one frozen pattern, whose digest is remembered."""
        import repro.kernels.cache

        hs = HeatStepper(8, staleness=StalenessPolicy(mode="refactor"))
        hs.run(2)  # the cold build and one refactor before counting
        real = repro.kernels.cache._hash_pattern
        hashed = []

        def counted(M):
            hashed.append(M.n_rows)
            return real(M)

        monkeypatch.setattr(repro.kernels.cache, "_hash_pattern", counted)
        rec = hs.step()
        assert rec.update == "values_changed" and rec.outcome == "served"
        assert hs.session.shard.n_refactors == 2
        assert hashed == []

    def test_step_builds_no_structure(self, monkeypatch):
        """After construction a step neither runs the stencil loop nor assembles."""
        import repro.apps.heat
        import repro.matrices.generators
        import repro.sparse.convert

        hs = HeatStepper(8, staleness=StalenessPolicy(mode="refactor"))

        def forbidden(*args, **kwargs):
            raise AssertionError("a step rebuilt the pattern")

        monkeypatch.setattr(repro.apps.heat, "grid2d", forbidden)
        monkeypatch.setattr(repro.matrices.generators, "grid2d", forbidden)
        monkeypatch.setattr(repro.matrices.generators, "coo_to_csr", forbidden)
        monkeypatch.setattr(repro.sparse.convert, "coo_to_csr", forbidden)
        records = hs.run(3)
        assert all(r.outcome == "served" for r in records)

    def test_step_matrices_share_one_read_only_pattern(self):
        hs = HeatStepper(6)
        A, B = hs.matrix(1), hs.matrix(2)
        assert A.indptr is B.indptr and A.indices is B.indices
        assert not np.shares_memory(A.data, B.data)
        with pytest.raises(ValueError, match="read-only"):
            A.indices[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            A.indptr[1] += 1
        A.data[0] = 7.0  # values stay the caller's
        assert hs.matrix(1).data[0] != 7.0

    def test_invalid_drift_rejected(self):
        with pytest.raises(ValueError, match="kappa_drift"):
            HeatStepper(6, kappa_drift=1.5)


class TestPowerFlowNewton:
    def test_converges_at_full_load(self):
        pf = PowerFlowNewton(60, staleness=StalenessPolicy(mode="refactor"))
        history = pf.solve()
        assert pf.final_residual() < 1e-6
        assert len(history) >= pf.load_steps  # at least one Newton step per level
        # the Newton loop exercised the value-only path
        assert pf.session.shard.n_refactors > 0
        assert pf.session.shard.n_cold == 1

    def test_jacobian_shares_pattern_with_network(self):
        from repro.kernels.cache import pattern_fingerprint

        pf = PowerFlowNewton(40)
        x = np.linspace(-1.0, 1.0, 40)
        assert pattern_fingerprint(pf.jacobian(x)) == pattern_fingerprint(pf.G)

    def test_cold_and_refactor_iterates_bitwise_identical(self):
        finals = {}
        for mode in ("cold", "refactor"):
            pf = PowerFlowNewton(60, seed=2, staleness=StalenessPolicy(mode=mode))
            pf.solve()
            finals[mode] = pf.x
        assert np.array_equal(finals["cold"], finals["refactor"])
