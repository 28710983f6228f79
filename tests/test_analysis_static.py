"""The predictive static analyses: loops, frequencies, cache bounds.

Three layers of evidence, mirroring the module structure:

* **loops** — back-edge/natural-loop/depth detection against dominator
  facts on hand-built CFGs (self loops, nesting, the classic
  irreducible diamond) and Hypothesis-random digraphs;
* **freq** — branch probabilities form distributions, the fixpoint
  respects the flow equations, and static heat ranks real compiled
  loop bodies above their preheaders;
* **cachebound** — the must/may domain is sound against a concrete
  LRU oracle on random access strings, the copy-on-write domain and
  the reverse-postorder solver match a dict-copy FIFO oracle on random
  digraphs, and the cycle bounds bracket the real simulator on real
  studies (spot here; exhaustively in the ``static`` check scope).
"""

from __future__ import annotations

import copy
import math
from collections import deque
from typing import Callable, Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import build_call_module, build_counting_module
from repro.analysis.cachebound import (
    _join_may,
    _join_must,
    _solve,
    _touch_may,
    _touch_must,
    classify_fetch,
    cycle_bounds,
)
from repro.analysis.dataflow import (
    dominators,
    predecessors,
    reachable,
    reverse_postorder,
)
from repro.analysis.freq import (
    BACK_EDGE_MASS,
    FREQUENCY_CLAMP,
    HEAT_QUANTUM,
    block_frequencies,
    branch_probabilities,
    static_heat_profile,
)
from repro.analysis.imagecfg import interprocedural_cfg
from repro.analysis.loops import (
    back_edges,
    irreducible_edges,
    loop_depths,
    loops,
    natural_loop,
)
from repro.compiler import compile_module
from repro.errors import ConfigurationError
from repro.fetch.config import CacheGeometry, FetchConfig


# ------------------------------------------------------------ strategies
@st.composite
def digraphs(draw, max_nodes=7):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    return {
        node: draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                max_size=3,
                unique=True,
            )
        )
        for node in range(n)
    }


# ----------------------------------------------------------------- loops
class TestLoops:
    def test_simple_loop(self):
        cfg = {0: [1], 1: [2], 2: [1, 3], 3: []}
        assert back_edges(cfg, 0) == [(2, 1)]
        assert natural_loop(cfg, 2, 1) == frozenset({1, 2})
        found = loops(cfg, 0)
        assert len(found) == 1
        assert found[0].header == 1
        assert found[0].body == frozenset({1, 2})
        assert loop_depths(cfg, 0) == {0: 0, 1: 1, 2: 1, 3: 0}

    def test_self_loop(self):
        cfg = {0: [1], 1: [1, 2], 2: []}
        assert back_edges(cfg, 0) == [(1, 1)]
        assert natural_loop(cfg, 1, 1) == frozenset({1})
        assert loop_depths(cfg, 0)[1] == 1
        assert irreducible_edges(cfg, 0) == []

    def test_nested_loops_share_depth(self):
        # 1 is the outer header, 2 the inner; 3 only in the outer body.
        cfg = {0: [1], 1: [2], 2: [2, 3], 3: [1, 4], 4: []}
        headers = {loop.header for loop in loops(cfg, 0)}
        assert headers == {1, 2}
        depths = loop_depths(cfg, 0)
        assert depths[2] == 2
        assert depths[1] == depths[3] == 1
        assert depths[0] == depths[4] == 0

    def test_shared_header_bodies_merge(self):
        # Two back edges to one header: one natural loop, merged body.
        cfg = {0: [1], 1: [2, 3], 2: [1], 3: [1, 4], 4: []}
        found = loops(cfg, 0)
        assert len(found) == 1
        assert found[0].body == frozenset({1, 2, 3})

    def test_irreducible_diamond(self):
        # Two entries into the 1<->2 cycle: neither dominates the
        # other, so neither retreating edge is a dominator back edge.
        cfg = {0: [1, 2], 1: [2], 2: [1, 3], 3: []}
        assert back_edges(cfg, 0) == []
        assert loops(cfg, 0) == []
        assert irreducible_edges(cfg, 0) != []

    @settings(max_examples=80, deadline=None)
    @given(digraphs())
    def test_back_edge_heads_dominate_tails(self, cfg):
        doms = dominators(cfg, 0)
        edges = {
            (u, v) for u in reachable(cfg, 0) for v in cfg[u]
        }
        backs = back_edges(cfg, 0)
        assert set(backs) <= edges
        for tail, header in backs:
            assert header in doms[tail]

    @settings(max_examples=80, deadline=None)
    @given(digraphs())
    def test_loop_bodies_are_wellformed(self, cfg):
        doms = dominators(cfg, 0)
        for loop in loops(cfg, 0):
            assert loop.header in loop.body
            for member in loop.body:
                # Reachable, and dominated by the loop header.
                assert member in doms
                assert loop.header in doms[member]

    @settings(max_examples=80, deadline=None)
    @given(digraphs())
    def test_irreducible_edges_disjoint_from_back_edges(self, cfg):
        backs = set(back_edges(cfg, 0))
        irreducible = set(irreducible_edges(cfg, 0))
        assert not (backs & irreducible)
        # Both kinds of retreating edge target a node on the DFS stack,
        # i.e. every irreducible edge closes some cycle.
        edges = {(u, v) for u in reachable(cfg, 0) for v in cfg[u]}
        assert irreducible <= edges

    @settings(max_examples=80, deadline=None)
    @given(digraphs())
    def test_depths_count_containing_bodies(self, cfg):
        depths = loop_depths(cfg, 0)
        bodies = [loop.body for loop in loops(cfg, 0)]
        for node, depth in depths.items():
            assert depth == sum(1 for body in bodies if node in body)


# ------------------------------------------------------------- frequency
class TestFrequencies:
    def test_probabilities_form_distributions(self):
        cfg = {0: [1, 2], 1: [3], 2: [3], 3: [0, 4], 4: []}
        probs = branch_probabilities(cfg, 0)
        outgoing = {}
        for (u, _), p in probs.items():
            assert 0.0 < p <= 1.0
            outgoing[u] = outgoing.get(u, 0.0) + p
        for u, total in outgoing.items():
            assert math.isclose(total, 1.0)

    def test_back_edges_get_the_mass(self):
        cfg = {0: [1], 1: [1, 2], 2: []}
        probs = branch_probabilities(cfg, 0)
        assert math.isclose(probs[(1, 1)], BACK_EDGE_MASS)
        assert math.isclose(probs[(1, 2)], 1.0 - BACK_EDGE_MASS)

    def test_loop_frequency_hits_geometric_fixpoint(self):
        cfg = {0: [1], 1: [1, 2], 2: []}
        freq = block_frequencies(cfg, 0)
        assert math.isclose(freq[0], 1.0)
        # f(1) = 1 + BACK_EDGE_MASS * f(1)  =>  1 / (1 - mass);
        # the iteration cap leaves a ~1e-5 geometric residual.
        assert math.isclose(
            freq[1], 1.0 / (1.0 - BACK_EDGE_MASS), rel_tol=1e-4
        )

    def test_nested_loop_with_early_exits_respects_flow(self):
        # Outer loop 1..4, inner loop 2..3 with an early exit 3->5 that
        # bypasses the outer latch, plus an inner latch back to 2.
        cfg = {
            0: [1],
            1: [2],
            2: [3],
            3: [2, 4, 5],
            4: [1, 5],
            5: [],
        }
        probs = branch_probabilities(cfg, 0)
        freq = block_frequencies(cfg, 0, probs)
        # Inner body at least as hot as the outer, outer hotter than
        # straight-line code.
        assert freq[2] >= freq[1] > freq[0]
        assert freq[3] >= freq[4]
        # The fixpoint satisfies every flow equation (up to the
        # capped-iteration residual).
        for node in cfg:
            inflow = (1.0 if node == 0 else 0.0) + sum(
                freq[u] * probs[(u, node)]
                for u in cfg
                if (u, node) in probs
            )
            assert math.isclose(freq[node], inflow, rel_tol=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(digraphs())
    def test_frequencies_finite_and_covering(self, cfg):
        freq = block_frequencies(cfg, 0)
        keep = reachable(cfg, 0)
        assert set(freq) == set(keep)
        for value in freq.values():
            assert 0.0 <= value <= FREQUENCY_CLAMP

    def test_static_heat_ranks_a_real_loop(self):
        module, _ = build_counting_module()
        image = compile_module(module).image
        profile = static_heat_profile(image)
        assert len(profile) == len(image)
        entry = image.entry_block
        assert profile[entry] >= HEAT_QUANTUM
        # The loop body runs hotter than the entry straight-line code.
        assert max(profile) > profile[entry]

    def test_static_heat_crosses_calls(self):
        module, _ = build_call_module()
        image = compile_module(module).image
        profile = static_heat_profile(image)
        cfg = interprocedural_cfg(image)
        live = reachable(cfg, image.entry_block)
        # Interprocedural edges make the callee (and the code *after*
        # the call sites) reachable: every live block gets heat.
        assert len(live) > 1
        for block_id in range(len(image)):
            if block_id in live:
                assert profile[block_id] > 0
            else:
                assert profile[block_id] == 0


# ---------------------------------------------------------- must/may LRU
def _concrete_lru(accesses, ways):
    """Oracle: one concrete LRU set, cold start, ``{line: age}``."""
    state = {}
    for line in accesses:
        old = state.get(line)
        for other, age in list(state.items()):
            if old is None or age < old:
                state[other] = age + 1
        state = {l: a for l, a in state.items() if a < ways}
        state[line] = 0
    return state


class TestMustMayDomain:
    WAYS = 2

    def _abstract(self, accesses, start_must=None, start_may=None):
        must = dict(start_must or {})
        may = dict(start_may or {})
        for line in accesses:
            must = _touch_must(must, ((0, line),), self.WAYS)
            may = _touch_may(may, ((0, line),), self.WAYS)
        return must.get(0, {}), may.get(0, {})

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=4), max_size=12
        )
    )
    def test_domain_sound_against_concrete_lru(self, accesses):
        concrete = _concrete_lru(accesses, self.WAYS)
        must, may = self._abstract(accesses)
        # From a cold start the abstraction is exact-or-weaker:
        # must-hits really resident, everything resident in may.
        for line, age in must.items():
            assert line in concrete
            assert concrete[line] <= age
        for line, age in concrete.items():
            assert line in may
            assert may[line] <= age

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=4), max_size=8),
        st.lists(st.integers(min_value=0, max_value=4), max_size=8),
        st.lists(st.integers(min_value=0, max_value=4), max_size=6),
    )
    def test_join_is_sound_for_both_paths(self, left, right, tail):
        """After joining two paths, must ⊆ each path's concrete cache
        and each path's concrete cache ⊆ may — even after more
        accesses run on the joined state."""
        lm, lmay = self._abstract(left)
        rm, rmay = self._abstract(right)
        must = _join_must({0: lm} if lm else {}, {0: rm} if rm else {})
        may = _join_may(
            {0: lmay} if lmay else {}, {0: rmay} if rmay else {}
        )
        must, may = self._abstract(tail, must, may)
        for path in (left, right):
            concrete = _concrete_lru(path + tail, self.WAYS)
            for line, age in must.items():
                assert line in concrete
                assert concrete[line] <= age
            for line, age in concrete.items():
                assert line in may
                assert may[line] <= age


# -------------------------------------------- dict-copy FIFO solver oracle
# The plain reference: every operation copies every set bucket, both
# domains share one FIFO worklist, and in-states are rebuilt from the
# final out-states.  The copy-on-write, reverse-postorder production
# solver must match it exactly.
State = Dict[int, Dict[int, int]]
Access = Tuple[int, int]


def _oracle_touch_must(
    state: State, accesses: Sequence[Access], ways: int
) -> State:
    out = {s: dict(d) for s, d in state.items()}
    for set_index, line in accesses:
        bucket = out.get(set_index, {})
        age = bucket.get(line, ways)
        new_bucket = {}
        for other, a in bucket.items():
            if other == line:
                continue
            na = a + 1 if a < age else a
            if na < ways:
                new_bucket[other] = na
        new_bucket[line] = 0
        out[set_index] = new_bucket
    return out


def _oracle_touch_may(
    state: State, accesses: Sequence[Access], ways: int
) -> State:
    out = {s: dict(d) for s, d in state.items()}
    for set_index, line in accesses:
        bucket = out.get(set_index, {})
        age = bucket.get(line)
        new_bucket = {}
        for other, a in bucket.items():
            if other == line:
                continue
            na = a + 1 if age is None or a <= age else a
            if na < ways:
                new_bucket[other] = na
        new_bucket[line] = 0
        out[set_index] = new_bucket
    return out


def _oracle_join_must(a: State, b: State) -> State:
    out: State = {}
    for set_index, da in a.items():
        db = b.get(set_index)
        if not db:
            continue
        merged = {
            line: max(age, db[line])
            for line, age in da.items()
            if line in db
        }
        if merged:
            out[set_index] = merged
    return out


def _oracle_join_may(a: State, b: State) -> State:
    out = {s: dict(d) for s, d in a.items()}
    for set_index, db in b.items():
        bucket = out.setdefault(set_index, {})
        for line, age in db.items():
            cur = bucket.get(line)
            bucket[line] = age if cur is None else min(cur, age)
    return out


def _oracle_solve(
    cfg: Dict[int, Sequence[int]],
    entry: int,
    transfer_must: Callable[[int, State], State],
    transfer_may: Callable[[int, State], State],
) -> Tuple[Dict[int, State], Dict[int, State]]:
    live = reachable(cfg, entry)
    preds = predecessors(cfg)

    def in_states(node: int, out_must, out_may) -> Tuple[State, State]:
        musts: List[State] = []
        mays: List[State] = []
        if node == entry:
            musts.append({})
            mays.append({})
        for pred in preds.get(node, ()):
            if pred in out_must:
                musts.append(out_must[pred])
                mays.append(out_may[pred])
        must = musts[0]
        for state in musts[1:]:
            must = _oracle_join_must(must, state)
        may = mays[0]
        for state in mays[1:]:
            may = _oracle_join_may(may, state)
        return must, may

    out_must: Dict[int, State] = {}
    out_may: Dict[int, State] = {}
    work = deque([entry])
    queued = {entry}
    while work:
        node = work.popleft()
        queued.discard(node)
        must, may = in_states(node, out_must, out_may)
        new_must = transfer_must(node, must)
        new_may = transfer_may(node, may)
        if (
            node not in out_must
            or out_must[node] != new_must
            or out_may[node] != new_may
        ):
            out_must[node] = new_must
            out_may[node] = new_may
            for succ in cfg.get(node, ()):
                if succ in live and succ not in queued:
                    work.append(succ)
                    queued.add(succ)
    in_must: Dict[int, State] = {}
    in_may: Dict[int, State] = {}
    for node in live:
        in_must[node], in_may[node] = in_states(node, out_must, out_may)
    return in_must, in_may


@st.composite
def access_strings(draw, num_sets):
    """``((set, line), ...)`` with each line pinned to one set."""
    lines = draw(st.lists(st.integers(min_value=0, max_value=7), max_size=4))
    return tuple((line % num_sets, line) for line in lines)


@st.composite
def abstract_states(draw, ways):
    """A ``{set: {line: age}}`` state with every age below ``ways``."""
    return draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=2),
            st.dictionaries(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=ways - 1),
                min_size=1,
                max_size=4,
            ),
            max_size=3,
        )
    )


class TestSolver:
    WAYS = 3
    OPS = (
        ("touch", _touch_must, _oracle_touch_must),
        ("touch", _touch_may, _oracle_touch_may),
        ("join", _join_must, _oracle_join_must),
        ("join", _join_may, _oracle_join_may),
    )

    @staticmethod
    def _transfers(touch_must, touch_may, join_must, join_may, problem):
        _, accesses, ways, buffered = problem

        # ``join(update(in), in)`` models an L0-eligible block: the
        # cache may or may not see its access.
        def must(node: int, state: State) -> State:
            updated = touch_must(state, accesses[node], ways)
            return join_must(updated, state) if buffered[node] else updated

        def may(node: int, state: State) -> State:
            updated = touch_may(state, accesses[node], ways)
            return join_may(updated, state) if buffered[node] else updated

        return must, may

    @pytest.mark.parametrize("l0", [False, True], ids=["plain", "l0-join"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_solve_matches_fifo_oracle(self, l0, data):
        """Same in-states as the FIFO dict-copy solver at every reachable
        node, on random digraphs: self-loops, irreducible cycles and
        unreachable nodes all occur."""
        cfg = data.draw(digraphs(max_nodes=9))
        num_sets = data.draw(st.sampled_from([1, 2, 4]))
        ways = data.draw(st.integers(min_value=1, max_value=3))
        accesses = {
            node: data.draw(access_strings(num_sets)) for node in cfg
        }
        buffered = {
            node: l0 and data.draw(st.booleans()) for node in cfg
        }
        problem = (cfg, accesses, ways, buffered)
        want_must, want_may = _oracle_solve(
            cfg,
            0,
            *self._transfers(
                _oracle_touch_must, _oracle_touch_may,
                _oracle_join_must, _oracle_join_may, problem,
            ),
        )
        order = reverse_postorder(cfg, 0)
        preds = predecessors(cfg)
        must, may = self._transfers(
            _touch_must, _touch_may, _join_must, _join_may, problem
        )
        got_must = _solve(cfg, order, preds, must, _join_must)
        got_may = _solve(cfg, order, preds, may, _join_may)
        assert set(got_must) == set(got_may) == reachable(cfg, 0)
        assert got_must == want_must
        assert got_may == want_may

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_domain_ops_never_mutate_their_arguments(self, data):
        """Results equal the dict-copy oracle's, and no operation changes
        any state built so far — buckets are shared between states, so a
        write to one would silently change others."""
        pool = data.draw(
            st.lists(abstract_states(self.WAYS), min_size=1, max_size=3)
        )
        snapshots = copy.deepcopy(pool)
        steps = data.draw(st.integers(min_value=1, max_value=12))
        for _ in range(steps):
            kind, op, oracle = data.draw(st.sampled_from(self.OPS))
            a = data.draw(st.sampled_from(pool))
            if kind == "touch":
                accesses = data.draw(access_strings(4))
                result = op(a, accesses, self.WAYS)
                expected = oracle(copy.deepcopy(a), accesses, self.WAYS)
            else:
                b = data.draw(st.sampled_from(pool))
                result = op(a, b)
                expected = oracle(copy.deepcopy(a), copy.deepcopy(b))
            assert result == expected
            pool.append(result)
            snapshots.append(copy.deepcopy(result))
            assert pool == snapshots


# ---------------------------------------------------------- cycle bounds
class TestCycleBounds:
    SCHEMES = ("base", "tailored", "compressed", "hybrid", "hybrid:static")

    @pytest.fixture(scope="class")
    def study(self, compress_study):
        return compress_study

    def _image_key(self, scheme):
        from repro.runtime.tasks import fetch_image_key

        return fetch_image_key(scheme)

    def test_classification_is_consistent(self, study):
        for scheme in self.SCHEMES:
            compressed = study.compressed(self._image_key(scheme))
            cls = classify_fetch(
                compressed, FetchConfig.for_scheme(scheme)
            )
            for part in (cls.cache, cls.atb):
                assert not (part.always_hit & part.always_miss)
                assert (part.always_hit | part.always_miss) <= (
                    part.analyzed
                )
                assert part.unclassified == (
                    part.analyzed - part.always_hit - part.always_miss
                )

    def test_bounds_bracket_the_simulator(self, study):
        from repro.compression.adaptive import heat_profile

        counts = heat_profile(
            study.run.block_trace, len(study.compiled.image)
        )
        for scheme in self.SCHEMES:
            compressed = study.compressed(self._image_key(scheme))
            config = FetchConfig.for_scheme(scheme)
            metrics = study.fetch_metrics(scheme)
            report = cycle_bounds(compressed, counts, config)
            assert report.lower <= metrics.cycles <= report.upper
            assert report.bracket(metrics.cycles)
            payload = report.to_json()
            assert payload["lower_cycles"] == report.lower
            assert payload["upper_cycles"] == report.upper

    def test_bounds_bracket_on_a_tiny_geometry(self, study):
        """A cache small enough to actually miss keeps the bracket."""
        from repro.compression.adaptive import heat_profile
        from repro.fetch.engine import simulate_fetch

        counts = heat_profile(
            study.run.block_trace, len(study.compiled.image)
        )
        compressed = study.compressed("full")
        config = FetchConfig(
            scheme="compressed",
            cache=CacheGeometry(
                name="tiny", capacity_bytes=512, ways=2, line_bytes=16
            ),
            atb_entries=64,
            atb_ways=2,
        )
        simulated = simulate_fetch(
            compressed, study.run.block_trace, config
        )
        report = cycle_bounds(compressed, counts, config)
        assert report.lower <= simulated.cycles <= report.upper

    def test_counts_length_is_validated(self, study):
        compressed = study.compressed("full")
        with pytest.raises(ConfigurationError):
            cycle_bounds(
                compressed, [1], FetchConfig.for_scheme("compressed")
            )
