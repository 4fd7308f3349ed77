"""The XMG hashing constructors and the per-network depth cache.

``Xmg.create_maj`` / ``create_xor`` must build exactly what the reference
constructors of ``oracles.logic`` build: the same returned literal, the
same nodes and the same strash table, for every operand pattern.
``Xmg.depth`` is computed once per network state; it must never answer
for a structure other than the current one.
"""

import itertools
import random

import pytest

from oracles.logic import create_maj_reference, create_xor_reference
from repro.logic.network import network_cost, network_stats
from repro.logic.xmg import Xmg
from repro.verify.fuzz import random_xmg


def arrays(xmg):
    return (list(xmg._kind), list(xmg._fanins), sorted(xmg._strash.items()))


def reference_depth(xmg):
    """Depth from a fresh levelling, bypassing the cache."""
    if not xmg.num_pos():
        return 0
    level = xmg._level_list()
    return max(level[po >> 1] for po in xmg.pos())


class TestConstructorsMatchReference:
    #: Constant, three inputs and a gate: 10 literals, both polarities.
    POOL = range(10)

    def small_network(self):
        xmg = Xmg("pool")
        a, b, c = (xmg.add_pi() for _ in range(3))
        create_maj_reference(xmg, a, b, c)
        return xmg

    @pytest.mark.parametrize("a", POOL)
    def test_every_maj_triple_of_a_small_pool(self, a):
        # Every operand order, constant, equal and complementary operand
        # and complement pattern over the pool.
        for b, c in itertools.product(self.POOL, repeat=2):
            fast, reference = self.small_network(), self.small_network()
            assert fast.create_maj(a, b, c) == create_maj_reference(
                reference, a, b, c
            ), (a, b, c)
            assert arrays(fast) == arrays(reference), (a, b, c)

    def test_every_xor_pair_of_a_small_pool(self):
        for a, b in itertools.product(self.POOL, repeat=2):
            fast, reference = self.small_network(), self.small_network()
            assert fast.create_xor(a, b) == create_xor_reference(reference, a, b)
            assert arrays(fast) == arrays(reference), (a, b)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_construction_sequences(self, seed):
        rng = random.Random(seed)
        fast, reference = Xmg(), Xmg()
        literals = [0, 1]
        for _ in range(rng.randint(2, 6)):
            lit = fast.add_pi()
            assert reference.add_pi() == lit
            literals.append(lit)
        reused = 0
        for _ in range(300):
            operands = [rng.choice(literals) ^ rng.randint(0, 1) for _ in range(3)]
            nodes_before = len(fast._kind)
            if rng.random() < 0.5:
                lit = fast.create_maj(*operands)
                assert lit == create_maj_reference(reference, *operands)
            else:
                lit = fast.create_xor(*operands[:2])
                assert lit == create_xor_reference(reference, *operands[:2])
            assert len(fast._kind) == len(reference._kind)
            reused += len(fast._kind) == nodes_before
            literals.append(lit)
        assert arrays(fast) == arrays(reference)
        assert reused > 0  # strash hits and folds were exercised

    def test_complemented_majorities_share_one_node(self):
        xmg = Xmg()
        a, b, c = (xmg.add_pi() for _ in range(3))
        positive = xmg.create_maj(a, b, c)
        for flips in itertools.product((0, 1), repeat=3):
            operands = [lit ^ flip for lit, flip in zip((a, b, c), flips)]
            for order in itertools.permutations(operands):
                lit = xmg.create_maj(*order)
                if flips == (1, 1, 1):
                    assert lit == positive ^ 1
        # one node per complement pattern up to self-duality
        assert xmg.num_maj() == 4

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("bad", ["past_end", "negative"])
    def test_out_of_range_literals_raise(self, position, bad):
        xmg = Xmg()
        a, b = xmg.add_pi(), xmg.add_pi()
        literal = 2 * len(xmg._kind) if bad == "past_end" else -1
        operands = [a, b, 0]
        operands[position] = literal
        with pytest.raises(ValueError, match="unknown node"):
            xmg.create_maj(*operands)
        if position < 2:
            with pytest.raises(ValueError, match="unknown node"):
                xmg.create_xor(*operands[:2])
        assert len(xmg._kind) == 3  # nothing was added


class TestDepthCache:
    def test_depth_follows_gates_and_outputs_on_one_object(self):
        xmg = Xmg()
        a, b, c = (xmg.add_pi() for _ in range(3))
        assert xmg.depth() == 0
        xmg.add_po(a)
        assert xmg.depth() == 0
        m = xmg.create_maj(a, b, c)
        assert xmg.depth() == 0  # the new gate drives no output yet
        xmg.add_po(m)
        assert xmg.depth() == 1
        x = xmg.create_xor(m, c)
        assert xmg.depth() == 1
        xmg.add_po(x ^ 1)
        assert xmg.depth() == 2
        assert xmg.create_xor(m, c) == x  # a strash hit adds nothing
        assert xmg.depth() == 2
        deep = xmg.create_and(x, xmg.add_pi())
        xmg.add_po(deep)
        assert xmg.depth() == 3 == reference_depth(xmg)

    @pytest.mark.parametrize("seed", range(15))
    def test_growing_fuzzed_networks(self, seed):
        rng = random.Random(seed)
        xmg = random_xmg(seed, num_pis=4, num_gates=12, num_pos=2)
        literals = [2 * node for node in xmg.nodes()]
        for _ in range(30):
            assert xmg.depth() == reference_depth(xmg)
            step = rng.random()
            operands = [rng.choice(literals) ^ rng.randint(0, 1) for _ in range(3)]
            if step < 0.4:
                literals.append(xmg.create_maj(*operands))
            elif step < 0.8:
                literals.append(xmg.create_xor(*operands[:2]))
            elif step < 0.9:
                literals.append(xmg.add_pi())
            else:
                xmg.add_po(rng.choice(literals) ^ 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_copies_and_cleanups_never_carry_a_stale_depth(self, seed):
        source = random_xmg(seed, num_pis=4, num_gates=15, num_pos=2)
        depth = source.depth()
        for derived in (source.copy(), source.cleanup()):
            assert derived.depth() == depth == reference_depth(derived)
            a = derived.pos()[0]
            derived.add_po(derived.create_xor(a, derived.create_maj(a, 2, 4 ^ 1)))
            assert derived.depth() == reference_depth(derived)
        # Growing a copy leaves the source's cached depth alone.
        assert source.depth() == depth == reference_depth(source)

    @pytest.mark.parametrize("seed", range(25))
    def test_stats_and_cost_match_an_uncached_levelling(self, seed):
        xmg = random_xmg(seed, num_pis=5, num_gates=25, num_pos=3)
        for network in (xmg, xmg.cleanup()):
            depth = reference_depth(network)
            assert network_stats(network).depth == depth
            assert network_cost(network) == (
                network.num_maj(),
                network.num_gates(),
                depth,
            )


class TestSameStructure:
    @staticmethod
    def build(name="n", pi_name="b", po_name="y", po_compl=0, extra_gate=False):
        xmg = Xmg(name)
        a, b = xmg.add_pi("a"), xmg.add_pi(pi_name)
        m = xmg.create_and(a, b)
        if extra_gate:
            xmg.create_xor(a, b)
        xmg.add_po(m ^ po_compl, po_name)
        return xmg

    def test_copies_are_equal(self):
        xmg = self.build()
        assert xmg.same_structure(xmg.copy())
        assert xmg.same_structure(self.build())

    @pytest.mark.parametrize(
        "change",
        [
            {"name": "other"},
            {"pi_name": "c"},
            {"po_name": "z"},
            {"po_compl": 1},
            {"extra_gate": True},
        ],
    )
    def test_every_field_counts(self, change):
        xmg, changed = self.build(), self.build(**change)
        assert not xmg.same_structure(changed)
        assert not changed.same_structure(xmg)

    def test_one_more_input_counts(self):
        xmg, changed = self.build(), self.build()
        changed.add_pi("late")
        assert not xmg.same_structure(changed)
