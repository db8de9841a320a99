"""Engine internals: caching, indirect exits, env isolation, spills,
execution tiers."""

import itertools

import pytest

from repro.benchsuite import benchmark_source
from repro.corpus.generate import generate_program
from repro.corpus.grammar import REGIONS
from repro.dbt import engine as engine_module
from repro.dbt.codegen import ENV_BASE, SPILL_BASE
from repro.dbt.direct import run_arm_program
from repro.dbt.engine import HOT_BLOCK_THRESHOLD, DBTEngine, DBTError
from repro.dbt.guard import GuardPolicy
from repro.experiments.common import ExperimentContext
from repro.faults.plan import corrupt_rule
from repro.learning import learn_rules
from repro.learning.store import RuleStore
from repro.minic import compile_source
from repro.minic.interp import run_tac


def build(source):
    return compile_source(source, "arm", 2, "llvm")


class TestTranslationCache:
    def test_translate_is_idempotent(self):
        guest = build("int main(void) { return 7; }")
        engine = DBTEngine(guest, "qemu")
        addr = guest.addr_of("main")
        first = engine.translate(addr)
        assert engine.translate(addr) is first
        assert engine.stats.translated_blocks == 1

    def test_translation_cost_counted_once(self):
        guest = build("""
        int main(void) {
          int i = 0;
          while (i < 100) { i += 1; }
          return i;
        }
        """)
        engine = DBTEngine(guest, "qemu")
        engine.run()
        cost_after = engine.stats.perf.translation_cycles
        # Loop body executed ~100 times, but each block paid once:
        assert engine.stats.perf.dispatches > \
            3 * engine.stats.translated_blocks
        assert cost_after == sum(
            tb.translation_cost for tb in engine._cache.values()
        )


class TestRepeatedRuns:
    SOURCE = """
    int main(void) {
      int i = 0;
      int s = 0;
      while (i < 50) { s += i; i += 1; }
      return s;
    }
    """

    def test_second_run_does_not_double_count(self):
        engine = DBTEngine(build(self.SOURCE), "qemu")
        first = engine.run()
        first_dynamic = first.stats.dynamic_guest_instructions
        first_host = first.stats.dynamic_host_instructions
        first_dispatches = first.stats.perf.dispatches
        second = engine.run()
        assert second.return_value == first.return_value
        # Dynamic stats describe the most recent run, not the sum.
        assert second.stats.dynamic_guest_instructions == first_dynamic
        assert second.stats.dynamic_host_instructions == first_host
        assert second.stats.perf.dispatches == first_dispatches

    def test_translation_stats_stay_cumulative(self):
        engine = DBTEngine(build(self.SOURCE), "qemu")
        engine.run()
        translated = engine.stats.translated_blocks
        translation_cycles = engine.stats.perf.translation_cycles
        engine.run()
        # The warm cache pays no further translation cost.
        assert engine.stats.translated_blocks == translated
        assert engine.stats.perf.translation_cycles == translation_cycles


class TestStatsViews:
    """The explicit lifetime / last_run views behind ``engine.stats``."""

    SOURCE = TestRepeatedRuns.SOURCE

    def test_last_run_equals_single_run(self):
        engine = DBTEngine(build(self.SOURCE), "qemu")
        result = engine.run()
        last = engine.last_run
        assert last.dynamic_guest_instructions == \
            result.stats.dynamic_guest_instructions
        assert last.perf.dispatches == result.stats.perf.dispatches
        # A cold cache means the first run triggered every translation.
        assert last.translated_blocks == \
            engine.lifetime.translated_blocks

    def test_lifetime_accumulates_dynamic_counters(self):
        engine = DBTEngine(build(self.SOURCE), "qemu")
        engine.run()
        once = engine.last_run
        engine.run()
        lifetime = engine.lifetime
        assert lifetime.dynamic_guest_instructions == \
            2 * once.dynamic_guest_instructions
        assert lifetime.perf.dispatches == 2 * once.perf.dispatches
        assert lifetime.perf.exec_cycles == \
            2 * once.perf.exec_cycles
        # last_run still describes exactly one run.
        assert engine.last_run.dynamic_guest_instructions == \
            once.dynamic_guest_instructions

    def test_warm_cache_run_translates_nothing(self):
        engine = DBTEngine(build(self.SOURCE), "qemu")
        engine.run()
        engine.run()
        assert engine.last_run.translated_blocks == 0
        assert engine.last_run.perf.translation_cycles == 0
        assert engine.lifetime.translated_blocks > 0

    def test_translate_outside_run_updates_lifetime_only(self):
        guest = build(self.SOURCE)
        engine = DBTEngine(guest, "qemu")
        engine.translate(guest.addr_of("main"))
        assert engine.lifetime.translated_blocks == 1
        assert engine.last_run.translated_blocks == 0
        assert engine.last_run.dynamic_guest_instructions == 0

    def test_stats_is_hybrid_snapshot(self):
        engine = DBTEngine(build(self.SOURCE), "qemu")
        engine.run()
        engine.run()
        stats = engine.stats
        # Dynamic side: the most recent run.
        assert stats.dynamic_guest_instructions == \
            engine.last_run.dynamic_guest_instructions
        assert stats.perf.dispatches == engine.last_run.perf.dispatches
        # Translation side: cumulative over the engine's life.
        assert stats.translated_blocks == \
            engine.lifetime.translated_blocks
        assert stats.perf.translation_cycles == \
            engine.lifetime.perf.translation_cycles
        # Detached: mutating the snapshot leaves the views alone.
        stats.translated_blocks += 99
        stats.hit_rule_lengths[1] = 123
        assert engine.lifetime.translated_blocks != \
            stats.translated_blocks
        assert 1 not in engine.lifetime.hit_rule_lengths


class TestIndirectControl:
    def test_calls_and_returns_thread_through_env(self):
        guest = build("""
        int add3(int a) { return a + 3; }
        int twice(int a) { return add3(add3(a)); }
        int main(void) { return twice(10); }
        """)
        result = DBTEngine(guest, "qemu").run()
        assert result.return_value == 16

    def test_recursion_through_guest_stack(self):
        guest = build("""
        int fib(int n) {
          if (n < 2) { return n; }
          return fib(n - 1) + fib(n - 2);
        }
        int main(void) { return fib(12); }
        """)
        result = DBTEngine(guest, "qemu").run()
        assert result.return_value == 144


class TestEnvIsolation:
    def test_env_and_guest_memory_disjoint(self):
        guest = build("""
        int data[64];
        int main(void) {
          int i = 0;
          while (i < 64) { data[i] = i; i += 1; }
          int s = 0;
          i = 0;
          while (i < 64) { s += data[i]; i += 1; }
          return s;
        }
        """)
        addrs = [guest.global_addrs[name] for name in guest.global_addrs]
        assert all(addr + 0x10000 < ENV_BASE for addr in addrs)
        result = DBTEngine(guest, "qemu").run()
        assert result.return_value == sum(range(64))

    def test_spill_slots_do_not_clobber_registers(self):
        # Wide expression forces host-register spills inside one block.
        guest = build("""
        int main(void) {
          int a = 1; int b = 2; int c = 3; int d = 4;
          int e = 5; int f = 6; int g = 7; int h = 8;
          return a*b + c*d + e*f + g*h + (a+b+c+d)*(e+f+g+h);
        }
        """)
        result = DBTEngine(guest, "qemu").run()
        expected = 1*2 + 3*4 + 5*6 + 7*8 + (1+2+3+4)*(5+6+7+8)
        assert result.return_value == expected
        assert SPILL_BASE > 0x60  # spill area clear of regs/flags


HOT_LOOP = """
int data[64];
int work(int *p, int n, int bias) {
  int acc = 0;
  int i = 0;
  while (i < n) {
    int v = p[i & 63];
    acc = acc + v - 1;
    acc = acc ^ (v << 2);
    if (acc > 10000) {
      acc -= 10000;
    }
    p[i & 63] = acc & 255;
    i += 1;
  }
  return acc + bias;
}
int main(void) {
  int i = 0;
  while (i < 64) {
    data[i] = i * 13 + 7;
    i += 1;
  }
  return work(data, 300, 5);
}
"""


@pytest.fixture(scope="module")
def hot_guest():
    return build(HOT_LOOP)


@pytest.fixture(scope="module")
def hot_rules(hot_guest):
    host = compile_source(HOT_LOOP, "x86", 2, "llvm")
    rules = learn_rules(hot_guest, host).rules
    assert rules, "the hot loop must yield rules"
    return rules


def fused_blocks(engine):
    """``{guest address: fused function}`` of every cached fused block."""
    return {addr: tb.fused for addr, tb in engine._cache.items()
            if tb.fused is not None}


def watch_fused(engine, calls):
    """Wrap every not-yet-wrapped fused block so that running it checks
    it was fused from the block the cache holds now (never a stale
    one), and logs its address in ``calls``."""
    for addr, fused in fused_blocks(engine).items():
        if getattr(fused, "watched", False):
            continue
        origin = engine._cache[addr]

        def run(regs, flags, mem, _run=fused, _addr=addr,
                _origin=origin):
            assert engine._cache.get(_addr) is _origin, \
                f"stale fused block {_addr:#x} ran"
            calls.append(_addr)
            return _run(regs, flags, mem)

        run.watched = True
        origin.fused = run


def watch_regions(engine, calls):
    """Wrap every region entry so that running it logs ``(entry pc,
    budget, result)`` in ``calls``."""
    for addr, entry in list(engine._region_entries.items()):
        if entry is None or getattr(entry[0], "watched", False):
            continue
        run, start = entry

        def logged(*args, _run=run, _addr=addr):
            result = _run(*args)
            calls.append((_addr, args[4], result))
            return result

        logged.watched = True
        engine._region_entries[addr] = (logged, start)


@pytest.fixture
def region_threshold(monkeypatch):
    """Test inputs run a hot loop a few hundred times where ref inputs
    run it thousands: a quarter of the region threshold forms regions
    on them at a like point of a loop's life."""
    monkeypatch.setattr(engine_module, "HOT_REGION_THRESHOLD",
                        engine_module.HOT_REGION_THRESHOLD // 4)


GOLDEN_SLICE = ("bzip2", "mcf", "sjeng", "libquantum")


@pytest.fixture(scope="module")
def golden_stores():
    context = ExperimentContext()
    return {name: context.rule_store_excluding(name) for name in GOLDEN_SLICE}


def golden_program(name, style):
    return compile_source(benchmark_source(name, "test"), "arm", 2, style)


def assert_same_run(fast, oracle):
    """The last runs of two engines agree on every dispatch counter,
    per block too (blocks retired mid-run included)."""
    assert fast.last_run.perf.dispatches == oracle.last_run.perf.dispatches
    assert fast.last_run.dynamic_host_instructions == \
        oracle.last_run.dynamic_host_instructions
    assert fast.last_run.perf.exec_cycles == \
        oracle.last_run.perf.exec_cycles

    def blocks(engine):
        return sorted(
            (tb.guest_start, tb.exec_count, tb.exec_cycles)
            for tb in list(engine._cache.values()) + engine._retired_blocks
        )

    assert blocks(fast) == blocks(oracle)


def guarded_corrupt_engine(guest, rules):
    """A guarded rules engine whose store has one rule, used by a block
    that fuses, corrupted so that the guard catches it only once the
    block has been fused: ``(engine, bad rule, its block's address,
    the clean return value)``."""
    clean = DBTEngine(guest, "rules", RuleStore.from_rules(list(rules)))
    expected = clean.run().return_value
    for tb in clean._cache.values():
        if tb.fused is None:
            continue
        for hit in tb.hit_profiles:
            rule = hit.rule
            try:
                bad = corrupt_rule(rule)
            except ValueError:
                continue
            bad_addr = tb.guest_start
            break
        else:
            continue
        break
    else:
        pytest.skip("no corruptible rule in a fused block")
    rules = [bad if r == rule else r for r in rules]
    policy = GuardPolicy(check_first=0,
                         check_interval=HOT_BLOCK_THRESHOLD + 8)
    engine = DBTEngine(guest, "rules", RuleStore.from_rules(rules),
                       guard=policy)
    return engine, bad, bad_addr, expected


class TestFusedTier:
    def test_fused_run_matches_oracle_exactly(self, hot_guest):
        fused = DBTEngine(hot_guest, "qemu")
        oracle = DBTEngine(hot_guest, "qemu", fast=False)
        result = fused.run()
        expected = oracle.run()
        assert fused_blocks(fused), "no block crossed the hot threshold"
        assert result.return_value == expected.return_value == \
            run_arm_program(hot_guest).return_value
        assert fused.last_run.dynamic_host_instructions == \
            oracle.last_run.dynamic_host_instructions
        assert fused.last_run.perf.exec_cycles == \
            oracle.last_run.perf.exec_cycles
        for addr, tb in fused._cache.items():
            assert tb.exec_cycles == oracle._cache[addr].exec_cycles

    def test_only_hot_blocks_fuse_and_stay_fused(self, hot_guest):
        engine = DBTEngine(hot_guest, "qemu")
        engine.run()
        for addr, tb in engine._cache.items():
            assert (tb.fused is not None) == \
                (tb.exec_count >= HOT_BLOCK_THRESHOLD)
        fused = fused_blocks(engine)
        engine.run()  # a warm run reuses the fused functions
        assert fused_blocks(engine) == fused

    def test_hot_install_drops_fused_blocks(self, hot_guest, hot_rules):
        live = DBTEngine(hot_guest, "rules")
        baseline = live.run()
        calls = []
        watch_fused(live, calls)
        fused_before = set(fused_blocks(live))
        _, invalidated = live.hot_install(list(hot_rules))
        assert invalidated
        dropped = fused_before - set(live._cache)
        assert dropped, "hot-install invalidated no fused block"
        assert not dropped & set(fused_blocks(live))
        live.tick = lambda engine: watch_fused(engine, calls)
        rerun = live.run()
        assert rerun.return_value == baseline.return_value
        assert calls
        prebuilt = DBTEngine(hot_guest, "rules",
                             RuleStore.from_rules(list(hot_rules)))
        prebuilt.run()
        # The retranslated, rule-covered code is what ran.
        assert live.last_run.dynamic_coverage == \
            prebuilt.last_run.dynamic_coverage > 0
        assert live.last_run.dynamic_host_instructions == \
            prebuilt.last_run.dynamic_host_instructions

    def test_guard_quarantine_drops_fused_blocks(self, hot_guest,
                                                 hot_rules):
        engine, bad, bad_addr, expected = guarded_corrupt_engine(
            hot_guest, hot_rules)
        calls = []
        engine.tick = lambda eng: watch_fused(eng, calls)
        engine.run()  # the unchecked dispatches before the catch miscompute
        assert bad in engine.quarantined_rules
        assert bad_addr in calls, "the corrupted block never ran fused"
        assert all(hit.rule != bad
                   for hit in engine._cache[bad_addr].hit_profiles)
        calls.clear()
        assert engine.run().return_value == expected
        assert bad_addr in calls  # fused again, from the clean translation

    @pytest.mark.parametrize("cause", ["hot_install", "quarantine"])
    def test_retired_blocks_take_their_compiled_forms(self, hot_guest,
                                                      hot_rules, cause):
        if cause == "hot_install":
            engine = DBTEngine(hot_guest, "rules")
            engine.run()
        else:
            engine, *_ = guarded_corrupt_engine(hot_guest, hot_rules)
        retired = []
        retire = engine._retire_blocks

        def spy(doomed):
            retired.extend(engine._cache[addr] for addr in doomed)
            return retire(doomed)

        engine._retire_blocks = spy
        if cause == "hot_install":
            assert engine.hot_install(list(hot_rules))[1]
        else:
            engine.run()
        assert any(tb.fused is not None for tb in retired), cause
        engine.run()  # retranslates what was retired, afresh
        live = list(engine._cache.values())
        forms = {id(form) for tb in live for form in (tb.steps, tb.fused)}
        for tb in retired:
            assert all(tb is not other for other in live)
            assert tb.steps is not None and id(tb.steps) not in forms
            assert tb.fused is None or id(tb.fused) not in forms

    @pytest.mark.parametrize("name", GOLDEN_SLICE)
    def test_dispatch_loop_matches_oracle(self, name, golden_stores,
                                          region_threshold):
        for style in ("llvm", "gcc"):
            program = golden_program(name, style)
            for mode in ("qemu", "rules"):
                store = golden_stores[name] if mode == "rules" else None
                fast = DBTEngine(program, mode, store)
                oracle = DBTEngine(program, mode, store, fast=False)
                assert fast.run().return_value == oracle.run().return_value
                assert fused_blocks(fast), (name, style, mode)
                assert fast._regions, (name, style, mode)
                assert_same_run(fast, oracle)

    def test_dispatch_loop_matches_oracle_across_hot_install(
            self, golden_stores):
        program = golden_program("mcf", "llvm")
        rules = golden_stores["mcf"].all_rules()
        engines, installs = [], []
        for tier in (True, False):
            engine = DBTEngine(program, "rules", RuleStore(), fast=tier)
            dispatches = itertools.count(1)

            def tick(eng, dispatches=dispatches):
                if next(dispatches) == 256:
                    installs.append(eng.hot_install(rules))

            engine.tick = tick
            engines.append(engine)
        fast, oracle = engines
        assert fast.run().return_value == oracle.run().return_value
        assert installs[0] == installs[1] and installs[0][1], installs
        assert fast._retired_blocks and fused_blocks(fast)
        assert_same_run(fast, oracle)

    def test_dispatch_loop_matches_oracle_under_guard(self, golden_stores):
        policy = GuardPolicy(check_first=2,
                             check_interval=HOT_BLOCK_THRESHOLD + 8)
        program = golden_program("sjeng", "gcc")
        rules = golden_stores["sjeng"].all_rules()
        fast, oracle = (
            DBTEngine(program, "rules", RuleStore.from_rules(rules),
                      fast=tier, guard=policy)
            for tier in (True, False)
        )
        assert fast.run().return_value == oracle.run().return_value
        assert fast.guard_stats == oracle.guard_stats
        assert fast.guard_stats.checks > 0
        assert_same_run(fast, oracle)

    def test_block_limit_stops_both_loops_alike(self):
        program = golden_program("bzip2", "llvm")
        fast = DBTEngine(program, "qemu")
        oracle = DBTEngine(program, "qemu", fast=False)
        for engine in (fast, oracle):
            with pytest.raises(DBTError, match="block limit"):
                engine.run(block_limit=1000)
            assert engine.last_run.perf.dispatches == 1000
        assert fused_blocks(fast)
        assert_same_run(fast, oracle)

    def test_warm_run_enters_regions_and_matches_oracle(
            self, hot_guest, region_threshold):
        fast = DBTEngine(hot_guest, "qemu")
        oracle = DBTEngine(hot_guest, "qemu", fast=False)
        for engine in (fast, oracle):
            engine.run()
        assert fast._regions
        calls = []
        watch_regions(fast, calls)
        assert fast.run().return_value == oracle.run().return_value
        assert sum(result[1] for _, _, result in calls if result) > \
            fast.last_run.perf.dispatches // 2
        assert_same_run(fast, oracle)

    def test_block_limit_inside_a_region(self, region_threshold):
        program = golden_program("bzip2", "llvm")
        fast = DBTEngine(program, "qemu")
        oracle = DBTEngine(program, "qemu", fast=False)
        for engine in (fast, oracle):
            engine.run()
        calls = []
        watch_regions(fast, calls)
        fast.run()
        # A region call that ran several dispatches; stop in its middle.
        limit = next(50_000_000 - budget + result[1] // 2
                     for _, budget, result in calls
                     if result and result[1] >= 4)
        calls.clear()
        for engine in (fast, oracle):
            with pytest.raises(DBTError, match="block limit"):
                engine.run(block_limit=limit)
            assert engine.last_run.perf.dispatches == limit
        assert any(result and result[1] == budget > 1
                   for _, budget, result in calls)
        assert_same_run(fast, oracle)

    def test_hot_install_drops_regions_with_retired_blocks(
            self, hot_guest, hot_rules, region_threshold):
        live = DBTEngine(hot_guest, "rules")
        live.run()
        regions = list(live._regions)
        assert regions
        cached = set(live._cache)
        _, invalidated = live.hot_install(list(hot_rules))
        retired = cached - set(live._cache)
        assert invalidated and retired
        hit = [r for r in regions if retired.intersection(r.members)]
        assert hit, "hot-install retired no region member"
        assert live._regions == [r for r in regions if r not in hit]
        runs = {region.run for region in live._regions}
        assert all(entry is None or entry[0] in runs
                   for entry in live._region_entries.values())
        assert not retired.intersection(live._region_entries)
        live.run()
        fresh = DBTEngine(hot_guest, "rules",
                          RuleStore.from_rules(list(hot_rules)), fast=False)
        fresh.run()
        assert_same_run(live, fresh)
        assert live._regions, "the rerun formed no region again"

    @pytest.mark.parametrize("hook", ["tick", "guard"])
    def test_tick_or_guard_keeps_regions_out(self, hot_guest, hot_rules,
                                             region_threshold, hook):
        engines = [
            DBTEngine(hot_guest, "rules",
                      RuleStore.from_rules(list(hot_rules)), fast=tier)
            for tier in (True, False)
        ]
        for engine in engines:
            engine.run()
            if hook == "tick":
                engine.tick = lambda eng: None
            else:
                engine.guard = GuardPolicy(check_first=1, check_interval=7)
        fast, oracle = engines
        assert fast._regions
        region_calls, fused_calls = [], []
        watch_regions(fast, region_calls)
        watch_fused(fast, fused_calls)
        assert fast.run().return_value == oracle.run().return_value
        assert not region_calls
        assert len(fused_calls) == sum(
            tb.exec_count for tb in fast._cache.values()
            if tb.fused is not None)
        assert_same_run(fast, oracle)

    def test_generated_programs_match_oracle(self, monkeypatch):
        # Three programs per grammar region, with thresholds low enough
        # that their short loops fuse blocks and form regions.
        monkeypatch.setattr(engine_module, "HOT_BLOCK_THRESHOLD", 2)
        monkeypatch.setattr(engine_module, "HOT_REGION_THRESHOLD", 4)
        fused = regions = 0
        for name, index in itertools.product(sorted(REGIONS), range(3)):
            program = build(generate_program(REGIONS[name], 5, name, index))
            fast = DBTEngine(program, "qemu")
            oracle = DBTEngine(program, "qemu", fast=False)
            assert fast.run().return_value == oracle.run().return_value == \
                run_tac(program.tac) & 0xFFFFFFFF, (name, index)
            assert_same_run(fast, oracle)
            fused += len(fused_blocks(fast))
            regions += len(fast._regions)
        assert fused > 100 and regions > 30, (fused, regions)
