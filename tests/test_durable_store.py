"""Durable plan store + out-of-core campaign correctness battery.

Three pillars, matching the durability contract in ``docs/durability.md``:

1. **Round-trip fidelity** — for every Table I plan kind (pttrs, pbtrs,
   gbtrs, getrs corner) x builder version 0/1/2 x dtype (float32,
   float64, complex128) x boundary, a builder saved to the store and
   loaded back — in this process or a fresh ``spawn``-ed one — solves
   bitwise identically to the freshly factorized original, and the warm
   path performs **zero** factorizations (telemetry-asserted).

2. **Corruption safety** — truncated, bit-flipped, zero-length, stale
   and half-written entries are never silently trusted: every defect
   yields a clean :class:`DurableStoreError`, the file is quarantined
   (``durable.corrupt_evicted``), and the plan cache falls back to a
   fresh factorization that still produces the right answer.

3. **Out-of-core campaigns** — streaming sources solved in bounded
   windows match the all-in-RAM solve bitwise, the window size respects
   the memory budget, and a resumed campaign skips completed chunks.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro import BSplineSpec
from repro.runtime import (
    CampaignState,
    DurableStoreError,
    EngineConfig,
    FaultPlan,
    FaultSpec,
    PlanCache,
    PlanKey,
    PlanStore,
    SolveEngine,
    Telemetry,
    run_campaign,
)
from repro.runtime.durable import (
    ArrayRHS,
    ChunkSpoolRHS,
    FORMAT_VERSION,
    MemmapRHS,
    PLAN_STORE_ENV,
    _WINDOW_COPIES,
    derive_chunk_cols,
)
from repro.testing import rng_for

# ---------------------------------------------------------------------------
# The spec sweep: every Table I plan kind is reachable from one of these.
#
#   degree 3, uniform, periodic  -> SchurSolver(PttrsPlan + GetrsPlan)
#   degree 4, uniform, periodic  -> SchurSolver(PbtrsPlan + GetrsPlan)
#   degree 3, nonuniform, periodic -> SchurSolver(GbtrsPlan + GetrsPlan)
#   degree 3, clamped            -> DirectBandSolver(GbtrsPlan)
# ---------------------------------------------------------------------------

SPECS = [
    BSplineSpec(degree=3, n_points=24, uniform=True, boundary="periodic"),
    BSplineSpec(degree=4, n_points=24, uniform=True, boundary="periodic"),
    BSplineSpec(
        degree=3, n_points=24, uniform=False, boundary="periodic", seed=7
    ),
    BSplineSpec(degree=3, n_points=24, uniform=True, boundary="clamped"),
    BSplineSpec(
        degree=4, n_points=24, uniform=False, boundary="clamped", seed=11
    ),
]
VERSIONS = (0, 1, 2)
DTYPES = (np.float32, np.float64, np.complex128)


def _label(spec: BSplineSpec) -> str:
    return (
        f"d{spec.degree}-{'uni' if spec.uniform else 'non'}-{spec.boundary}"
    )


def _rhs_for(key: PlanKey, cols: int = 5, seed: int = 0) -> np.ndarray:
    n = PlanCache().builder(key).n
    rng = rng_for(seed)
    rhs = rng.normal(size=(n, cols))
    if np.dtype(key.dtype).kind == "c":
        rhs = rhs + 1j * rng.normal(size=(n, cols))
    return np.ascontiguousarray(rhs.astype(key.dtype))


def _warm_cache(tmp_path, telemetry=None):
    telemetry = telemetry or Telemetry()
    store = PlanStore(tmp_path, telemetry=telemetry)
    return PlanCache(telemetry=telemetry, store=store), telemetry


# ---------------------------------------------------------------------------
# 1. Round-trip fidelity
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("version", VERSIONS)
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("spec", SPECS, ids=_label)
    def test_save_load_solve_is_bitwise(self, tmp_path, spec, dtype, version):
        key = PlanKey.from_spec(spec, version=version, dtype=dtype)
        cold_cache, cold_t = _warm_cache(tmp_path)
        builder = cold_cache.builder(key)
        assert cold_t.counter("plan_cache.factorized") == 1
        assert cold_t.counter("durable.store_writes") == 1
        rhs = _rhs_for(key, seed=version)
        expected = builder.solve(rhs)

        warm_cache, warm_t = _warm_cache(tmp_path)
        warm = warm_cache.builder(key)
        got = warm.solve(rhs)

        # The durability promise: zero refactorizations, identical bytes.
        assert warm_t.counter("plan_cache.factorized") == 0
        assert warm_t.counter("durable.store_hits") == 1
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == expected.dtype

    def test_sweep_covers_every_table1_plan_kind(self, tmp_path):
        # Pin the coverage claim of the sweep above: if a refactor of the
        # builder changes which plan classes the specs reach, this fails
        # rather than silently shrinking the battery.
        seen = set()
        for spec in SPECS:
            builder = PlanCache().builder(PlanKey.from_spec(spec))
            solver = builder.solver
            for attr in ("plan", "q_plan", "delta_plan"):
                plan = getattr(solver, attr, None)
                if plan is not None:
                    seen.add(type(plan).__name__)
        assert seen == {"PttrsPlan", "PbtrsPlan", "GbtrsPlan", "GetrsPlan"}

    def test_stored_factor_bytes_are_the_fresh_factor_bytes(self, tmp_path):
        # Stronger than solve equality: the persisted factor arrays are
        # byte-for-byte the arrays the factorization produced.
        spec = SPECS[0]
        key = PlanKey.from_spec(spec)
        cache, _ = _warm_cache(tmp_path)
        fresh = cache.builder(key)
        warm_cache, _ = _warm_cache(tmp_path)
        warm = warm_cache.builder(key)
        assert warm is not fresh
        f, w = fresh.solver, warm.solver
        np.testing.assert_array_equal(f.q_plan.d, w.q_plan.d)
        np.testing.assert_array_equal(f.q_plan.e, w.q_plan.e)
        np.testing.assert_array_equal(f.delta_plan.lu, w.delta_plan.lu)
        np.testing.assert_array_equal(f.delta_plan.ipiv, w.delta_plan.ipiv)
        np.testing.assert_array_equal(f.beta, w.beta)
        np.testing.assert_array_equal(f.lam, w.lam)

    def test_store_is_keyed_not_shared(self, tmp_path):
        # Two different keys never collide onto one entry.
        k1 = PlanKey.from_spec(SPECS[0])
        k2 = PlanKey.from_spec(SPECS[0], dtype=np.float32)
        store = PlanStore(tmp_path)
        assert store.path_for(k1) != store.path_for(k2)
        cache, _ = _warm_cache(tmp_path)
        cache.builder(k1)
        cache.builder(k2)
        assert len(store) == 2
        assert k1 in store and k2 in store
        store.evict(k1)
        assert k1 not in store and k2 in store

    def test_engine_picks_up_store_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(PLAN_STORE_ENV, str(tmp_path))
        spec = SPECS[0]
        rhs = _rhs_for(PlanKey.from_spec(spec))
        with SolveEngine() as engine:
            expected = engine.map_batches(spec, [rhs])[0]
            assert engine.plan_store is not None
        with SolveEngine() as engine:
            got = engine.map_batches(spec, [rhs])[0]
            assert engine.telemetry.counter("plan_cache.factorized") == 0
        np.testing.assert_array_equal(got, expected)

    def test_warm_start_prefills_the_cache(self, tmp_path):
        store_dir = str(tmp_path / "store")
        config = EngineConfig(plan_store_dir=store_dir)
        blocks = {_label(s): _rhs_for(PlanKey.from_spec(s)) for s in SPECS}
        with SolveEngine(config=config) as engine:
            expected = {
                _label(s): engine.map_batches(s, [blocks[_label(s)]])[0]
                for s in SPECS
            }
        with SolveEngine(config=config) as engine:
            loaded = engine.warm_start()
            assert loaded == len(SPECS)
            assert engine.telemetry.counter("durable.warm_loaded") == loaded
            for s in SPECS:
                got = engine.map_batches(s, [blocks[_label(s)]])[0]
                np.testing.assert_array_equal(got, expected[_label(s)])
            # every solve was a cache hit on the warm-started entries
            assert engine.telemetry.counter("plan_cache.factorized") == 0


# ---------------------------------------------------------------------------
# 1b. A second process loading the same store is bitwise identical
# ---------------------------------------------------------------------------


def _spawned_solve(store_dir, spec_kwargs, dtype_name, rhs, conn):
    """Child body: warm-load from *store_dir*, solve, report bytes back."""
    try:
        spec = BSplineSpec(**spec_kwargs)
        key = PlanKey.from_spec(spec, dtype=dtype_name)
        telemetry = Telemetry()
        cache = PlanCache(
            telemetry=telemetry, store=PlanStore(store_dir, telemetry=telemetry)
        )
        out = cache.builder(key).solve(np.asarray(rhs))
        conn.send(
            {
                "ok": True,
                "result": out,
                "factorized": telemetry.counter("plan_cache.factorized"),
                "hits": telemetry.counter("durable.store_hits"),
            }
        )
    except BaseException as exc:  # pragma: no cover - debugging aid
        conn.send({"ok": False, "error": repr(exc)})
    finally:
        conn.close()


@pytest.mark.parametrize("dtype", (np.float64, np.complex128),
                         ids=lambda d: np.dtype(d).name)
def test_spawned_process_warm_loads_bitwise(tmp_path, dtype):
    spec = BSplineSpec(degree=3, n_points=24, boundary="periodic")
    key = PlanKey.from_spec(spec, dtype=dtype)
    cache, _ = _warm_cache(tmp_path)
    rhs = _rhs_for(key, seed=3)
    expected = cache.builder(key).solve(rhs)

    ctx = multiprocessing.get_context("spawn")
    rx, tx = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_spawned_solve,
        args=(
            str(tmp_path),
            {"degree": 3, "n_points": 24, "boundary": "periodic"},
            np.dtype(dtype).name,
            rhs,
            tx,
        ),
    )
    proc.start()
    tx.close()
    try:
        assert rx.poll(120), "spawned child produced no result"
        report = rx.recv()
    finally:
        proc.join(timeout=30)
    assert report["ok"], report.get("error")
    assert report["factorized"] == 0
    assert report["hits"] == 1
    np.testing.assert_array_equal(report["result"], expected)


# ---------------------------------------------------------------------------
# 2. Corruption / fuzz battery
# ---------------------------------------------------------------------------


def _store_with_entry(tmp_path):
    key = PlanKey.from_spec(SPECS[0])
    telemetry = Telemetry()
    store = PlanStore(tmp_path, telemetry=telemetry)
    PlanCache(telemetry=telemetry, store=store).builder(key)
    return key, store, telemetry, store.path_for(key)


def _mutations():
    def truncate_half(raw):
        return raw[: len(raw) // 2]

    def truncate_header(raw):
        return raw[:6]

    def zero_length(raw):
        return b""

    def bitflip_payload(raw):
        buf = bytearray(raw)
        buf[-8] ^= 0x40  # flip one bit deep inside the npz payload
        return bytes(buf)

    def bitflip_header(raw):
        buf = bytearray(raw)
        buf[16] ^= 0x01  # inside the JSON header
        return bytes(buf)

    def stale_format(raw):
        buf = bytearray(raw)
        buf[4] = FORMAT_VERSION + 1
        return bytes(buf)

    def bad_magic(raw):
        return b"JUNK" + raw[4:]

    def half_written(raw):
        # a writer died mid-write: magic + format byte + partial header
        return raw[:11]

    return [
        truncate_half,
        truncate_header,
        zero_length,
        bitflip_payload,
        bitflip_header,
        stale_format,
        bad_magic,
        half_written,
    ]


class TestCorruption:
    @pytest.mark.parametrize(
        "mutate", _mutations(), ids=lambda f: f.__name__
    )
    def test_defective_entry_is_evicted_and_refactored(self, tmp_path, mutate):
        key, store, telemetry, path = _store_with_entry(tmp_path)
        raw = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(mutate(raw))

        # Direct load: a clean, typed error — never a wrong builder.
        with pytest.raises(DurableStoreError):
            store.load(key)
        assert telemetry.counter("durable.corrupt_evicted") == 1
        assert not os.path.exists(path), "corrupt entry must be quarantined"
        events = telemetry.events("durable")
        assert any(e["action"] == "corrupt_evicted" for e in events)

        # Cache path: degrades to a plain miss + refactorization, and the
        # refactored plan still gives the right answer.
        before = telemetry.counter("plan_cache.factorized")
        cache = PlanCache(telemetry=telemetry, store=store)
        builder = cache.builder(key)
        assert telemetry.counter("plan_cache.factorized") == before + 1
        rhs = _rhs_for(key, seed=9)
        reference = PlanCache().builder(key).solve(rhs)
        np.testing.assert_array_equal(builder.solve(rhs), reference)
        # ...and the rewritten entry is good again.
        fresh = PlanStore(tmp_path)
        assert fresh.load(key) is not None

    def test_random_payload_fuzz_never_returns_wrong_builder(self, tmp_path):
        # 64 seeded random single-byte corruptions anywhere in the file:
        # each either still parses to a bitwise-identical builder (the
        # flip landed in npz padding) or raises DurableStoreError.  No
        # third outcome — crash or silently-wrong factors — is allowed.
        key, store, telemetry, path = _store_with_entry(tmp_path)
        pristine = open(path, "rb").read()
        rhs = _rhs_for(key, seed=13)
        expected = PlanCache().builder(key).solve(rhs)
        rng = rng_for(2026)
        outcomes = {"clean": 0, "rejected": 0}
        for _ in range(64):
            buf = bytearray(pristine)
            pos = int(rng.integers(0, len(buf)))
            buf[pos] ^= int(rng.integers(1, 256))
            with open(path, "wb") as fh:
                fh.write(bytes(buf))
            try:
                builder = store.load(key)
            except DurableStoreError:
                outcomes["rejected"] += 1
            else:
                np.testing.assert_array_equal(builder.solve(rhs), expected)
                outcomes["clean"] += 1
        assert outcomes["rejected"] > 0  # the battery actually bit
        assert (
            telemetry.counter("durable.corrupt_evicted")
            == outcomes["rejected"]
        )

    def test_wrong_key_in_right_filename_is_rejected(self, tmp_path):
        # Tampering: entry bytes for key A copied over key B's filename.
        k1, store, _, p1 = _store_with_entry(tmp_path)
        k2 = PlanKey.from_spec(SPECS[3])
        PlanCache(store=store).builder(k2)
        os.replace(p1, store.path_for(k2))
        with pytest.raises(DurableStoreError, match="does not match"):
            store.load(k2)

    def test_write_failure_never_loses_the_solve(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec(site="durable.store_write", error="runtime")]
        )
        telemetry = Telemetry()
        store = PlanStore(tmp_path, telemetry=telemetry, faults=plan)
        cache = PlanCache(telemetry=telemetry, store=store)
        key = PlanKey.from_spec(SPECS[0])
        builder = cache.builder(key)  # must not raise
        assert builder is not None
        assert telemetry.counter("durable.store_write_failures") == 1
        assert len(store) == 0  # nothing half-written left behind
        # the fault plan is single-shot: the next build persists fine
        cache2 = PlanCache(telemetry=telemetry, store=store)
        cache2.builder(key)
        assert len(store) == 1

    def test_read_fault_degrades_to_refactorization(self, tmp_path):
        key, store, telemetry, _ = _store_with_entry(tmp_path)
        plan = FaultPlan(
            [FaultSpec(site="durable.store_read", error="durable")]
        )
        faulty = PlanStore(tmp_path, telemetry=telemetry, faults=plan)
        before = telemetry.counter("plan_cache.factorized")
        cache = PlanCache(telemetry=telemetry, store=faulty)
        builder = cache.builder(key)
        assert builder is not None
        assert telemetry.counter("plan_cache.factorized") == before + 1

    def test_entries_skips_and_quarantines_bad_files(self, tmp_path):
        key, store, telemetry, path = _store_with_entry(tmp_path)
        k2 = PlanKey.from_spec(SPECS[3])
        PlanCache(store=store).builder(k2)
        with open(path, "wb") as fh:
            fh.write(b"RPLN garbage")
        loaded = list(store.entries())
        assert len(loaded) == 1 and loaded[0][0] == k2
        assert telemetry.counter("durable.corrupt_evicted") == 1
        assert not os.path.exists(path)


# ---------------------------------------------------------------------------
# 3. Out-of-core campaigns
# ---------------------------------------------------------------------------

CAMPAIGN_SPEC = BSplineSpec(degree=3, n_points=48, boundary="periodic")


def _campaign_data(cols=600, seed=5):
    n = PlanCache().builder(PlanKey.from_spec(CAMPAIGN_SPEC)).n
    return np.ascontiguousarray(rng_for(seed).normal(size=(n, cols)))


class TestStreamingSources:
    def test_array_and_memmap_and_spool_agree(self, tmp_path):
        data = _campaign_data(cols=97)
        npy = tmp_path / "rhs.npy"
        np.save(npy, data)
        spool = ChunkSpoolRHS.spool(
            tmp_path / "spool",
            [data[:, i : i + 17] for i in range(0, data.shape[1], 17)],
        )
        for src in (ArrayRHS(data), MemmapRHS(npy), spool):
            assert src.shape == data.shape
            assert src.dtype == data.dtype
            np.testing.assert_array_equal(src.read(0, 97), data)
            np.testing.assert_array_equal(src.read(13, 55), data[:, 13:55])
            # reads straddling spool part boundaries
            np.testing.assert_array_equal(src.read(16, 18), data[:, 16:18])

    def test_fingerprint_tracks_content(self, tmp_path):
        data = _campaign_data(cols=20)
        fp = ArrayRHS(data).fingerprint()
        assert fp == ArrayRHS(data.copy()).fingerprint()
        other = data.copy()
        other[0, 0] += 1.0
        assert ArrayRHS(other).fingerprint() != fp

    def test_spool_rejects_missing_manifest(self, tmp_path):
        os.makedirs(tmp_path / "empty", exist_ok=True)
        with pytest.raises(DurableStoreError):
            ChunkSpoolRHS(tmp_path / "empty")


class TestCampaign:
    def _reference(self, data):
        with SolveEngine(max_batch=4096) as engine:
            return engine.map_batches(CAMPAIGN_SPEC, [data])[0]

    def test_campaign_matches_in_ram_solve_bitwise(self, tmp_path):
        data = _campaign_data()
        expected = self._reference(data)
        out = tmp_path / "coeffs.npy"
        with SolveEngine(max_batch=4096) as engine:
            result = run_campaign(
                engine, CAMPAIGN_SPEC, ArrayRHS(data), out, chunk_cols=113
            )
            np.testing.assert_array_equal(np.asarray(result), expected)
        # the output survives on disk past the engine
        np.testing.assert_array_equal(np.load(out), expected)

    def test_memory_budget_bounds_the_window(self, tmp_path):
        data = _campaign_data()
        n, itemsize = data.shape[0], data.dtype.itemsize
        budget = n * itemsize * 64 * _WINDOW_COPIES  # ~64-column windows
        assert data.nbytes > budget, "RHS must exceed the budget for this test"
        expected = self._reference(data)
        with SolveEngine(max_batch=4096) as engine:
            result = run_campaign(
                engine,
                CAMPAIGN_SPEC,
                ArrayRHS(data),
                tmp_path / "out.npy",
                memory_budget=budget,
            )
            snap = engine.telemetry.snapshot()
        np.testing.assert_array_equal(np.asarray(result), expected)
        window = snap["series"]["campaign.window_bytes"]
        assert window["max"] * _WINDOW_COPIES <= budget
        assert window["count"] >= data.shape[1] // 64

    def test_derive_chunk_cols(self):
        assert derive_chunk_cols(100, 8, 100 * 8 * 4 * 10) == 10
        assert derive_chunk_cols(100, 8, 1) == 1  # floor of one column
        with pytest.raises(ValueError):
            derive_chunk_cols(100, 8, 0)

    def test_resume_skips_completed_chunks(self, tmp_path):
        data = _campaign_data(cols=300)
        expected = self._reference(data)
        out = tmp_path / "out.npy"
        with SolveEngine(max_batch=4096) as engine:
            run_campaign(
                engine, CAMPAIGN_SPEC, ArrayRHS(data), out, chunk_cols=50
            )
            first = engine.telemetry.counter("campaign.chunks_completed")
            result = run_campaign(
                engine, CAMPAIGN_SPEC, ArrayRHS(data), out, chunk_cols=50
            )
            assert engine.telemetry.counter("campaign.chunks_completed") == first
            assert engine.telemetry.counter("campaign.chunks_skipped") == first
            assert engine.telemetry.counter("campaign.resumes") == 1
        np.testing.assert_array_equal(np.asarray(result), expected)

    def test_half_done_campaign_resumes_bitwise(self, tmp_path):
        # Simulate an interruption by constructing the exact on-disk
        # state a killed campaign leaves: output memmap with the first
        # chunks solved, checkpoint listing them as done.  The resumed
        # campaign must complete the rest and match the uninterrupted
        # run bitwise.  (The *crash*-interrupted variant — a child
        # process killed by an os._exit fault mid-campaign — lives in
        # test_resilience.py.)
        data = _campaign_data(cols=240)
        expected = self._reference(data)
        out = tmp_path / "out.npy"
        state_path = str(out) + ".campaign.json"

        with SolveEngine(max_batch=4096) as engine:
            run_campaign(
                engine, CAMPAIGN_SPEC, ArrayRHS(data), out, chunk_cols=40
            )
        state = CampaignState.load(state_path)
        assert state.finished

        # Rewind: forget the last 4 chunks and scribble on their output
        # region, as if the process died before solving them.
        state.completed = [[0, 80]]
        state.save()
        mm = np.lib.format.open_memmap(out, mode="r+")
        mm[:, 80:] = np.nan
        mm.flush()
        del mm

        with SolveEngine(max_batch=4096) as engine:
            result = run_campaign(
                engine, CAMPAIGN_SPEC, ArrayRHS(data), out, chunk_cols=40
            )
            assert engine.telemetry.counter("campaign.chunks_skipped") == 2
            assert engine.telemetry.counter("campaign.chunks_completed") == 4
            assert engine.telemetry.counter("campaign.resumes") == 1
        np.testing.assert_array_equal(np.asarray(result), expected)

    def test_resume_with_wrong_source_is_refused(self, tmp_path):
        data = _campaign_data(cols=120)
        out = tmp_path / "out.npy"
        with SolveEngine(max_batch=4096) as engine:
            run_campaign(
                engine, CAMPAIGN_SPEC, ArrayRHS(data), out, chunk_cols=40
            )
            other = data.copy()
            other[0, 0] += 1.0
            with pytest.raises(DurableStoreError, match="campaign"):
                run_campaign(
                    engine, CAMPAIGN_SPEC, ArrayRHS(other), out, chunk_cols=40
                )
            # resume=False starts over and succeeds
            result = run_campaign(
                engine,
                CAMPAIGN_SPEC,
                ArrayRHS(other),
                out,
                chunk_cols=40,
                resume=False,
            )
        np.testing.assert_array_equal(
            np.asarray(result), self._reference(other)
        )

    def test_campaign_state_round_trip_and_staleness(self, tmp_path):
        path = tmp_path / "c.json"
        state = CampaignState(
            path, campaign_id="abc", n=10, total_cols=100, chunk_cols=30,
            dtype="float64",
        )
        assert [tuple(c) for c in state.chunks()] == [
            (0, 30), (30, 60), (60, 90), (90, 100),
        ]
        state.mark_done(30, 60)
        state.mark_done(0, 30)
        state.save()
        back = CampaignState.load(path)
        assert back.completed == [[0, 60]]  # adjacent ranges coalesce
        assert back.done_cols == 60 and not back.finished
        assert back.is_done(0, 30) and not back.is_done(60, 90)

        # stale / malformed checkpoints are typed errors, not crashes
        with open(path, "w") as fh:
            json.dump({"format_version": 999}, fh)
        with pytest.raises(DurableStoreError):
            CampaignState.load(path)
        with open(path, "w") as fh:
            fh.write("{not json")
        with pytest.raises(DurableStoreError):
            CampaignState.load(path)

    def test_solve_stream_resumes_from_its_state_path(self, tmp_path):
        """``solve_stream`` checkpoints next to its output unless given an
        explicit ``state_path``; a rerun resumes from that checkpoint."""
        data = _campaign_data(cols=90)
        expected = self._reference(data)
        explicit = tmp_path / "ckpts" / "run.json"
        explicit.parent.mkdir()
        for out, state_path, checkpoint in (
            (tmp_path / "a.npy", None, tmp_path / "a.npy.campaign.json"),
            (tmp_path / "b.npy", explicit, explicit),
        ):
            with SolveEngine(max_batch=4096) as engine:
                for _ in range(2):
                    result = engine.solve_stream(
                        CAMPAIGN_SPEC,
                        ArrayRHS(data),
                        out,
                        chunk_cols=30,
                        state_path=state_path,
                    )
                assert engine.telemetry.counter("campaign.resumes") == 1
                assert engine.telemetry.counter("campaign.chunks_skipped") == 3
            assert checkpoint.exists()
            np.testing.assert_array_equal(np.asarray(result), expected)
        assert not (tmp_path / "b.npy.campaign.json").exists()
