"""Tests for communication-tree construction (the paper's §III schemes)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    CommTree,
    binary_tree,
    build_tree,
    derive_seed,
    flat_tree,
    hybrid_tree,
    random_perm_tree,
    shifted_binary_tree,
)


def check_valid_tree(tree: CommTree, root: int, participants: set[int]):
    """Structural invariants every scheme must satisfy."""
    assert tree.root == root
    assert set(tree.ranks()) == participants
    assert tree.size == len(participants)
    # Every non-root has exactly one parent, and edges are consistent.
    seen = {root}
    for r in tree.ranks():
        for c in tree.children.get(r, ()):
            assert tree.parent[c] == r
            assert c not in seen, "rank reached twice: not a tree"
            seen.add(c)
    assert seen == participants, "tree does not span the participants"


PARTICIPANT_SETS = [
    {4},
    {1, 4},
    {1, 2, 3, 4, 5, 6},
    set(range(0, 40, 3)),
    set(range(100)),
]


@pytest.mark.parametrize("participants", PARTICIPANT_SETS)
@pytest.mark.parametrize(
    "scheme", ["flat", "binary", "shifted", "randperm", "hybrid"]
)
def test_all_schemes_produce_valid_trees(scheme, participants):
    root = max(participants)
    tree = build_tree(scheme, root, participants, seed=7)
    check_valid_tree(tree, root, set(participants))


class TestFlatTree:
    def test_star_shape(self):
        tree = flat_tree(4, {1, 2, 3, 4, 5, 6})
        assert tree.child_count(4) == 5
        assert tree.depth() == 1
        for r in (1, 2, 3, 5, 6):
            assert tree.is_leaf(r)

    def test_root_only(self):
        tree = flat_tree(0, {0})
        assert tree.size == 1 and tree.depth() == 0


class TestBinaryTree:
    def test_paper_figure_3b(self):
        # Root P4, participants P1..P6: P4 -> {P1, P5}; P1 -> {P2, P3};
        # P5 -> {P6}.  (Paper Fig. 3(b), 1-based labels.)
        tree = binary_tree(4, {1, 2, 3, 4, 5, 6})
        assert set(tree.children[4]) == {1, 5}
        assert set(tree.children[1]) == {2, 3}
        assert set(tree.children[5]) == {6}
        assert tree.depth() == 2

    def test_root_degree_at_most_two(self):
        for n in (2, 5, 17, 64, 200):
            tree = binary_tree(0, set(range(n)))
            assert tree.child_count(0) <= 2

    def test_logarithmic_depth(self):
        for n in (2, 8, 33, 100, 257):
            tree = binary_tree(0, set(range(n)))
            assert tree.depth() <= int(np.ceil(np.log2(n))) + 1

    def test_lowest_nonroot_is_internal_highest_is_leaf(self):
        # The paper's §III observation: with the sorted ordering, the
        # highest rank never forwards; the lowest non-root rank always
        # does (for groups of more than ~3 ranks).
        for n in (8, 20, 50):
            ranks = set(range(10, 10 + n))
            tree = binary_tree(10 + n // 2, ranks)
            assert tree.is_leaf(10 + n - 1) or 10 + n - 1 == 10 + n // 2
            lowest = 10
            assert tree.child_count(lowest) > 0

    def test_deterministic(self):
        t1 = binary_tree(3, {1, 2, 3, 4, 5})
        t2 = binary_tree(3, {1, 2, 3, 4, 5})
        assert t1.order == t2.order and t1.parent == t2.parent


class TestShiftedBinaryTree:
    def test_paper_figure_3c_is_a_rotation(self):
        # The construction order must be the root followed by a circular
        # rotation of the sorted non-root ranks (paper Fig. 3(c)).
        tree = shifted_binary_tree(4, {1, 2, 3, 4, 5, 6}, seed=123)
        order = list(tree.order)
        assert order[0] == 4
        rest = order[1:]
        sorted_rest = [1, 2, 3, 5, 6]
        k = sorted_rest.index(rest[0])
        assert rest == sorted_rest[k:] + sorted_rest[:k]

    def test_seed_changes_rotation(self):
        participants = set(range(20))
        orders = {
            shifted_binary_tree(0, participants, seed=s).order
            for s in range(12)
        }
        assert len(orders) > 1, "seed must influence the rotation"

    def test_same_seed_same_tree(self):
        p = set(range(15))
        t1 = shifted_binary_tree(3, p, seed=42)
        t2 = shifted_binary_tree(3, p, seed=42)
        assert t1.order == t2.order

    def test_internal_nodes_vary_across_seeds(self):
        # The whole point of the heuristic: different collectives pick
        # different internal (forwarding) nodes.
        p = set(range(24))
        internal_sets = set()
        for s in range(30):
            t = shifted_binary_tree(0, p, seed=s)
            internal_sets.add(tuple(sorted(t.internal_ranks())))
        assert len(internal_sets) >= 10

    def test_depth_still_logarithmic(self):
        for n in (8, 64, 150):
            t = shifted_binary_tree(0, set(range(n)), seed=5)
            assert t.depth() <= int(np.ceil(np.log2(n))) + 1


class TestRandomPermTree:
    def test_order_is_permutation_not_rotation(self):
        p = set(range(30))
        rotations = 0
        trials = 20
        for s in range(trials):
            t = random_perm_tree(0, p, seed=s)
            rest = list(t.order[1:])
            sorted_rest = sorted(rest)
            k = sorted_rest.index(rest[0])
            if rest == sorted_rest[k:] + sorted_rest[:k]:
                rotations += 1
        assert rotations < trials // 2


class TestHybridTree:
    def test_small_groups_are_flat(self):
        t = hybrid_tree(0, set(range(6)), seed=1, threshold=8)
        assert t.depth() == 1

    def test_large_groups_are_shifted_binary(self):
        t = hybrid_tree(0, set(range(30)), seed=1, threshold=8)
        assert t.depth() > 1
        assert t.child_count(0) <= 2


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_component_sensitivity(self):
        seeds = {derive_seed(7, k, i) for k in range(10) for i in range(10)}
        assert len(seeds) == 100

    def test_nonnegative_31bit(self):
        for k in range(50):
            s = derive_seed(123456789, k)
            assert 0 <= s < 2**31


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="unknown tree scheme"):
        build_tree("bogus", 0, {0, 1})


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.integers(0, 500), min_size=1, max_size=64),
    st.integers(0, 2**31 - 1),
    st.sampled_from(["flat", "binary", "shifted", "randperm", "hybrid"]),
)
def test_tree_invariants_property(participants, seed, scheme):
    """Any scheme, any participant set: a valid spanning tree rooted at
    the designated root, with binary-family degree/depth bounds."""
    root = sorted(participants)[len(participants) // 2]
    tree = build_tree(scheme, root, participants, seed)
    check_valid_tree(tree, root, set(participants))
    if scheme in ("binary", "shifted", "randperm"):
        assert tree.child_count(root) <= 2
        for r in tree.ranks():
            assert tree.child_count(r) <= 2
        if tree.size > 1:
            assert tree.depth() <= int(np.ceil(np.log2(tree.size))) + 1


class TestMemoizedRandomness:
    """The rotation offset / permutation memoization must be invisible:
    identical draws to constructing a fresh Generator per collective."""

    def test_rotation_offset_matches_fresh_generator(self):
        from repro.comm.trees import rotation_offset

        for seed in (0, 1, 42, 123, 20160523, 2**31 - 1):
            for n in (2, 3, 8, 23, 46, 100):
                expect = int(np.random.default_rng(seed).integers(n))
                assert rotation_offset(seed, n) == expect
                # Second (cached) call returns the same value.
                assert rotation_offset(seed, n) == expect

    def test_rotation_offset_pinned_values(self):
        # Hard-pinned against numpy's PCG64 stream: a numpy upgrade that
        # changes these silently changes every shifted-tree experiment.
        from repro.comm.trees import rotation_offset

        assert rotation_offset(0, 5) == 4
        assert rotation_offset(42, 8) == 0
        assert rotation_offset(123, 23) == 0
        assert rotation_offset(20160523, 46) == 5
        assert rotation_offset(7, 2) == 1

    def test_permutation_matches_fresh_generator(self):
        from repro.comm.trees import permutation_indices

        for seed in (0, 99, 20160523):
            for n in (2, 6, 17):
                expect = tuple(
                    int(i) for i in np.random.default_rng(seed).permutation(n)
                )
                assert permutation_indices(seed, n) == expect

    def test_permutation_pinned_values(self):
        from repro.comm.trees import permutation_indices

        assert permutation_indices(99, 6) == (0, 3, 4, 5, 2, 1)

    def test_shifted_tree_shape_pinned(self):
        # Full regression pin of one shifted tree (construction order and
        # edges), guarding both the memoization and the array fast path.
        t = shifted_binary_tree(4, {1, 2, 3, 4, 5, 6}, seed=123)
        assert t.order == (4, 1, 2, 3, 5, 6)
        assert t.parent == {1: 4, 5: 4, 6: 5, 2: 1, 3: 1}

    def test_random_perm_tree_shape_pinned(self):
        t = random_perm_tree(0, set(range(7)), seed=99)
        assert t.order == (0, 1, 4, 5, 6, 3, 2)


class TestArrayFastPath:
    """build_tree routes through the cached array engine; the per-scheme
    dict constructors above are the spec it must reproduce exactly."""

    @pytest.mark.parametrize(
        "scheme", ["flat", "binary", "binomial", "shifted", "randperm", "hybrid"]
    )
    def test_build_tree_matches_dict_constructors(self, scheme):
        import random

        from repro.comm.trees import binomial_tree

        constructors = {
            "flat": lambda r, p, s: flat_tree(r, p),
            "binary": lambda r, p, s: binary_tree(r, p),
            "binomial": lambda r, p, s: binomial_tree(r, p),
            "shifted": shifted_binary_tree,
            "randperm": random_perm_tree,
            "hybrid": lambda r, p, s: hybrid_tree(r, p, s, threshold=8),
        }
        rnd = random.Random(1234)
        for _ in range(60):
            n = rnd.randint(1, 50)
            parts = set(rnd.sample(range(300), n))
            root = rnd.choice(sorted(parts))
            seed = rnd.randint(0, 2**31 - 1)
            fast = build_tree(scheme, root, parts, seed)
            ref = constructors[scheme](root, parts, seed)
            assert fast.order == ref.order
            assert fast.parent == ref.parent
            assert fast.children == ref.children

    def test_tree_arrays_consistent_with_comm_tree(self):
        from repro.comm.trees import tree_arrays

        arrs = tree_arrays("shifted", 3, range(20), seed=5)
        tree = arrs.to_comm_tree()
        assert tree.root == 3
        assert list(arrs.ranks) == list(tree.order)
        for i, r in enumerate(tree.order):
            assert arrs.child_counts[i] == tree.child_count(r)
            if r != tree.root:
                assert tree.parent[r] == tree.order[arrs.parent_pos[i]]
        assert arrs.max_degree == max(
            tree.child_count(r) for r in tree.ranks()
        )


class TestStructureCacheRelabeling:
    """The structure cache + relabel path must be *bit-identical* to
    direct construction: the cache stores rank-free shapes keyed on
    ``(scheme, p, offset/perm)`` and lays the caller's ranks on at
    lookup, so any divergence here silently changes every experiment."""

    CONSTRUCTORS = {
        "flat": lambda r, p, s: flat_tree(r, p),
        "binary": lambda r, p, s: binary_tree(r, p),
        "shifted": shifted_binary_tree,
        "randperm": random_perm_tree,
        "hybrid": lambda r, p, s: hybrid_tree(r, p, s, threshold=8),
    }

    @settings(max_examples=120, deadline=None)
    @given(
        st.sets(st.integers(0, 2000), min_size=1, max_size=48),
        st.integers(0, 2**31 - 1),
        st.sampled_from(["flat", "binary", "binomial", "shifted", "randperm", "hybrid"]),
        st.integers(0, 2**31 - 1),
    )
    def test_relabel_bit_identical_to_direct_construction(
        self, participants, seed, scheme, root_pick
    ):
        from repro.comm.trees import binomial_tree, tree_arrays

        ranks = sorted(participants)
        root = ranks[root_pick % len(ranks)]
        arrs = tree_arrays(scheme, root, participants, seed)
        fast = arrs.to_comm_tree()
        ctors = {**self.CONSTRUCTORS, "binomial": lambda r, p, s: binomial_tree(r, p)}
        ref = ctors[scheme](root, set(participants), seed)
        assert fast.order == ref.order
        assert fast.parent == ref.parent
        assert fast.children == ref.children
        # The ndarray view agrees elementwise with the dict order too
        # (int64 exactness, not just same set of ranks).
        assert arrs.ranks.dtype == np.int64
        assert tuple(int(r) for r in arrs.ranks) == ref.order

    @settings(max_examples=40, deadline=None)
    @given(
        st.sets(st.integers(0, 500), min_size=2, max_size=32),
        st.sets(st.integers(600, 1100), min_size=2, max_size=32),
        st.integers(0, 2**31 - 1),
        st.sampled_from(["flat", "binary", "binomial", "shifted", "randperm"]),
    )
    def test_same_size_groups_share_one_structure(self, a, b, seed, scheme):
        """Two disjoint rank sets of equal size (same seed) must share
        the cached structure object -- the property that collapses the
        keyspace from per-collective to per-(size, offset)."""
        from repro.comm.trees import tree_arrays

        size = min(len(a), len(b))
        a, b = sorted(a)[:size], sorted(b)[:size]
        ta = tree_arrays(scheme, a[0], a, seed)
        tb = tree_arrays(scheme, b[0], b, seed)
        assert ta.parent_pos is tb.parent_pos
        assert ta.child_counts is tb.child_counts
        assert ta.family == tb.family


class TestCompiledTree:
    """The vectorized engine's trees come out of the same structure
    cache, counted by the same counters, in the same rank order."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sets(st.integers(0, 2000), min_size=1, max_size=48),
        st.integers(0, 2**31 - 1),
        st.sampled_from(["flat", "binary", "binomial", "shifted", "randperm", "hybrid"]),
        st.integers(0, 2**31 - 1),
    )
    def test_matches_tree_arrays(self, participants, seed, scheme, root_pick):
        from repro.comm.trees import compiled_tree, tree_arrays

        parts = tuple(sorted(participants))
        root = parts[root_pick % len(parts)]
        ct = compiled_tree(scheme, root, parts, seed)
        arrs = tree_arrays(scheme, root, parts, seed)
        assert ct.ranks == arrs.ranks.tolist()
        assert ct.parentpos == arrs.parent_pos.tolist()
        assert ct.child_counts is arrs.child_counts
        assert (ct.indptr, ct.childpos) == arrs.children_csr()

    def test_lookups_are_counted_by_the_shared_cache(self):
        from repro.comm.trees import (
            compiled_tree,
            tree_arrays,
            tree_cache_clear,
            tree_cache_info,
        )

        tree_cache_clear()
        compiled_tree("shifted", 2, (0, 2, 4, 6, 8), seed=9)
        assert tree_cache_info()["misses"] == 1
        # Same structure from another rank set, and from the volume
        # model's entry point: both hit the entry the first call made.
        compiled_tree("shifted", 11, (1, 3, 5, 7, 11), seed=9)
        tree_arrays("shifted", 2, (0, 2, 4, 6, 8), seed=9)
        info = tree_cache_info()
        assert (info["hits"], info["misses"], info["size"]) == (2, 1, 1)


class TestBinomialTree:
    def test_parent_clears_highest_bit(self):
        from repro.comm import binomial_tree

        tree = binomial_tree(0, set(range(16)))
        for r in range(1, 16):
            expect = r - (1 << (r.bit_length() - 1))
            assert tree.parent[r] == expect

    def test_root_degree_is_log_p(self):
        from repro.comm import binomial_tree

        for k in (2, 3, 4, 5):
            tree = binomial_tree(0, set(range(1 << k)))
            assert tree.child_count(0) == k
            assert tree.depth() == k

    def test_valid_spanning_tree_arbitrary_sets(self):
        from repro.comm import binomial_tree

        for participants in ({3}, {1, 9}, set(range(0, 77, 3))):
            root = max(participants)
            tree = binomial_tree(root, participants)
            check_valid_tree(tree, root, set(participants))

    def test_depth_logarithmic_non_power_of_two(self):
        from repro.comm import binomial_tree

        tree = binomial_tree(0, set(range(100)))
        assert tree.depth() <= 7

    def test_build_tree_dispatch(self):
        from repro.comm import build_tree

        tree = build_tree("binomial", 5, set(range(10)))
        check_valid_tree(tree, 5, set(range(10)))

    def test_deterministic_forwarders_like_binary(self):
        """Binomial shares binary's flaw: fixed internal nodes across
        collectives (the motivation for the shifted variant applies)."""
        from repro.comm import binomial_tree

        group = set(range(12))
        t1 = binomial_tree(0, group)
        t2 = binomial_tree(0, group)
        assert t1.internal_ranks() == t2.internal_ranks()
