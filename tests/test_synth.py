"""Ensemble generation: determinism, validity, perturbation semantics."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from mtdist import (
    Agreement,
    EnsembleSpec,
    LabelTable,
    LabeledMergeTree,
    MergeTree,
    PerturbationSpec,
    assign_labels,
    classify_agreement,
    elm_distance,
    errors,
    full_agreement_distance,
    generate_ensemble,
    perturb,
    random_base_tree,
    write_mtree,
)
from mtdist.harness import cmd_gen
from mtdist.synth import UNKNOWN_LABEL_BASE, _schedule


def _zero_spec(seed=0):
    return PerturbationSpec(0, 0.0, 0, 0, seed)


def test_base_tree_minimal():
    t = random_base_tree(3, 1)
    assert t.n_vertices == 3
    assert len(t.leaves) == 2
    for leaf in t.leaves:
        assert -1.0 <= float(t.scalars[leaf]) < 0.0
    assert float(t.scalars[t.root]) == 0.0


def test_base_tree_too_small():
    with pytest.raises(errors.TooSmall):
        random_base_tree(2, 1)


@pytest.mark.parametrize("seed", range(100))
def test_base_tree_structure_over_seeds(seed):
    t = random_base_tree(50, seed)
    assert t.n_vertices == 49  # largest odd count <= 50
    for v in range(t.n_vertices):
        kids = t.children(v)
        assert len(kids) in (0, 2)  # full binary


def test_base_tree_deterministic():
    labels = lambda t: assign_labels(t, 1.0, 5)
    a = labels(random_base_tree(31, 9))
    b = labels(random_base_tree(31, 9))
    assert write_mtree(a) == write_mtree(b)
    c = labels(random_base_tree(31, 10))
    assert write_mtree(a) != write_mtree(c)


def test_assign_labels_full_fraction_gives_full_agreement():
    t = random_base_tree(15, 2)
    a = assign_labels(t, 1.0, 3)
    b = assign_labels(t, 1.0, 3)
    assert classify_agreement(a, b).case is Agreement.FULL


def test_assign_labels_ceiling_rule():
    t = random_base_tree(27, 4)  # 27 vertices -> 14 leaves
    assert len(t.leaves) == 14
    lt = assign_labels(t, 0.5, 0)
    known = [l for l in lt.leaf_labels() if l <= UNKNOWN_LABEL_BASE]
    assert len(known) == 7
    assert known == list(range(1, 8))


def test_assign_labels_zero_fraction_disagrees():
    t = random_base_tree(9, 6)
    a = assign_labels(t, 0.0, 1)
    b = assign_labels(t, 0.0, 2)  # its unknowns moved to a second member's range
    b = LabeledMergeTree(t, LabelTable({l + UNKNOWN_LABEL_BASE: v for l, v in b.labels.items()}))
    assert classify_agreement(a, b).case is Agreement.DISAGREEMENT


def test_perturb_noop_is_identity():
    lt = assign_labels(random_base_tree(21, 7), 1.0, 7)
    out = perturb(lt, _zero_spec())
    assert write_mtree(out) == write_mtree(lt)
    assert full_agreement_distance(lt, out).distance == 0.0
    assert elm_distance(lt, out).distance == 0.0


def test_perturb_deletion_boundary():
    lt = assign_labels(random_base_tree(9, 3), 0.5, 1)
    n_leaves = len(lt.tree.leaves)
    out = perturb(lt, PerturbationSpec(0, 0.0, 0, n_leaves - 1, 11))
    assert len(out.tree.leaves) == 1
    with pytest.raises(errors.TooManyDeletions):
        perturb(lt, PerturbationSpec(0, 0.0, 0, n_leaves, 11))


def test_perturb_spares_known_leaves_first():
    lt = assign_labels(random_base_tree(15, 8), 0.5, 2)
    unknowns = sum(1 for l in lt.leaf_labels() if l > UNKNOWN_LABEL_BASE)
    out = perturb(lt, PerturbationSpec(0, 0.0, 0, unknowns, 13))
    survivors = out.leaf_labels()
    assert all(l <= UNKNOWN_LABEL_BASE for l in survivors)
    assert set(survivors) <= {l for l in lt.leaf_labels() if l <= UNKNOWN_LABEL_BASE}


def test_perturb_deletes_a_one_child_vertex_left_childless():
    # vertex 1 has one child, the unknown leaf 3; once 3 goes, 1 is a
    # labeled leaf like any other and the next deletion may pick it
    tree = MergeTree([0.0, -1.0, -2.0, -1.5, -2.0], [None, 0, 0, 1, 0])
    labels = LabelTable({1: 1, 2: 2, 3: 4, UNKNOWN_LABEL_BASE + 1: 3})
    lt = LabeledMergeTree(tree, labels)
    survivors = {
        perturb(lt, PerturbationSpec(0, 0.0, 0, 2, seed)).leaf_labels()
        for seed in range(12)
    }
    assert survivors == {(1, 2), (1, 3), (2, 3)}


@pytest.mark.parametrize("seed", range(30))
def test_perturbed_trees_stay_valid(seed):
    lt = assign_labels(random_base_tree(33, seed), 0.5, seed)
    spec = PerturbationSpec(
        scalar_update_count=10,
        scalar_magnitude=2.0,  # violent noise; repair must fix everything
        rotation_count=4,
        deletion_count=3,
        seed=seed,
    )
    perturb(lt, spec)  # the result checks itself when built


def test_generate_ensemble_size_one():
    members = generate_ensemble(EnsembleSpec(max_vertices=15, ensemble_size=1, seed=4))
    assert len(members) == 1


def test_generate_ensemble_deterministic_and_valid():
    spec = EnsembleSpec(max_vertices=25, ensemble_size=6, seed=12)
    one = generate_ensemble(spec)
    two = generate_ensemble(spec)
    assert [write_mtree(m) for m in one] == [write_mtree(m) for m in two]


def test_ensemble_members_share_known_labels():
    members = generate_ensemble(EnsembleSpec(max_vertices=25, ensemble_size=5, seed=3))
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            info = classify_agreement(members[i], members[j])
            assert info.case in (Agreement.PARTIAL, Agreement.FULL)
            assert len(info.known) >= 1


def test_ensemble_unknown_ranges_disjoint():
    members = generate_ensemble(EnsembleSpec(max_vertices=15, ensemble_size=4, seed=5))
    seen: set[int] = set()
    for m in members:
        unknowns = {l for l in m.leaf_labels() if l > UNKNOWN_LABEL_BASE}
        assert not (unknowns & seen)
        seen |= unknowns


def test_preset_ensemble_shrinks_on_average():
    spec = EnsembleSpec(max_vertices=50, ensemble_size=20, seed=7)
    members = generate_ensemble(spec, schedule_kind="preset")
    base_count = members[0].tree.n_vertices
    avg = float(np.mean([m.tree.n_vertices for m in members]))
    assert avg < base_count


def test_unknown_schedule_kind_refused():
    spec = EnsembleSpec(max_vertices=9, ensemble_size=3, seed=1)
    for kind in ("presets", "Default", ""):
        with pytest.raises(errors.ValidationError, match="schedule_kind"):
            generate_ensemble(spec, schedule_kind=kind)


def test_preset_schedule_escalates():
    spec = EnsembleSpec(max_vertices=50, ensemble_size=20, seed=7)
    base = random_base_tree(50, 0)
    sched = _schedule(spec, base, True)
    assert len(sched) == 19
    assert sched[-1].scalar_magnitude > sched[0].scalar_magnitude
    assert sched[-1].rotation_count >= sched[0].rotation_count


def test_ensemble_spec_validation():
    with pytest.raises(errors.TooSmall):
        EnsembleSpec(max_vertices=2)
    with pytest.raises(errors.ValidationError):
        EnsembleSpec(max_vertices=9, label_fraction=1.5)
    with pytest.raises(errors.ValidationError, match="label_fraction"):
        EnsembleSpec(max_vertices=9, label_fraction=-0.1)
    with pytest.raises(errors.ValidationError, match="ensemble_size"):
        EnsembleSpec(max_vertices=9, ensemble_size=0)
    # counts and seeds are integers by operator.index: no float, no string
    for name, value in (("ensemble_size", 2.5), ("max_vertices", 9.5), ("seed", 1.5), ("seed", "0")):
        with pytest.raises(errors.ValidationError, match=f"{name} must be an integer"):
            EnsembleSpec(**{"max_vertices": 9, name: value})
    spec = EnsembleSpec(max_vertices=np.int64(9), ensemble_size=np.int64(2), seed=np.int64(3))
    assert [type(v) for v in (spec.max_vertices, spec.ensemble_size, spec.seed)] == [int] * 3
    assert spec == EnsembleSpec(9, 2, seed=3)


@pytest.mark.parametrize(
    "fields",
    [
        (-1, 0.0, 0, 0),
        (0, 0.0, -1, 0),
        (0, 0.0, 0, -1),
        (0, -0.5, 0, 0),
        (1.5, 0.0, 0, 0),
        (0, 0.0, 0.5, 0),
        (0, 0.0, 0, 0.5),
        (0, 0.0, 0, "1"),
    ],
    ids=[
        "updates",
        "rotations",
        "deletions",
        "magnitude",
        "fractional-updates",
        "fractional-rotations",
        "fractional-deletions",
        "string-deletions",
    ],
)
def test_perturbation_spec_validation(fields):
    with pytest.raises(errors.ValidationError):
        PerturbationSpec(*fields, seed=0)


def test_perturbation_seed_is_an_integer():
    for seed in (1.5, "0"):
        with pytest.raises(errors.ValidationError, match="seed must be an integer"):
            PerturbationSpec(0, 0.0, 0, 0, seed)
    assert PerturbationSpec(0, 0.0, 0, 0, np.int64(4)) == _zero_spec(4)


def test_gen_refuses_a_count_that_is_no_integer_and_writes_nothing(tmp_path):
    for options in (
        dict(max_vertices=9, count=2.5),
        dict(max_vertices=9.5),
        dict(max_vertices=9, seed=1.5),
    ):
        with pytest.raises(errors.ValidationError, match="must be an integer"):
            cmd_gen(tmp_path / "out", **options)
    assert not (tmp_path / "out").exists()


def test_integer_parameters_are_integers():
    # the check counts and seeds go through: no string, no float
    tree = random_base_tree(9, 0)
    for make in (
        lambda: random_base_tree("5", 0),
        lambda: random_base_tree(5.5, 0),
        lambda: random_base_tree(9, "0"),
        lambda: assign_labels(tree, 0.5, "x"),
        lambda: assign_labels(tree, 0.5, 1.0),
    ):
        with pytest.raises(errors.ValidationError, match="must be an integer"):
            make()
    same = random_base_tree(np.int64(9), np.int64(0))
    assert same.scalars.tolist() == tree.scalars.tolist()
    labeled = assign_labels(tree, 0.5, np.int64(3))
    assert labeled.labels.items() == assign_labels(tree, 0.5, 3).labels.items()


def test_float_parameters_are_finite_real_numbers():
    # no string, none past the reals; the same conversion in every spec
    for make in (
        lambda x: EnsembleSpec(9, label_fraction=x),
        lambda x: PerturbationSpec(0, x, 0, 0, 0),
        lambda x: assign_labels(random_base_tree(9, 0), x, 0),
    ):
        for value in ("0.5", "1", None, [0.5], float("nan"), float("inf")):
            with pytest.raises(errors.ValidationError, match="must be a finite real number"):
                make(value)
    spec = EnsembleSpec(9, label_fraction=np.float64(0.25))
    assert type(spec.label_fraction) is float and spec == EnsembleSpec(9, label_fraction=0.25)
    spec = PerturbationSpec(0, 1, 0, 0, 0)
    assert type(spec.scalar_magnitude) is float and spec == PerturbationSpec(0, 1.0, 0, 0, 0)


@pytest.mark.parametrize("fraction", [-0.01, 1.01])
def test_assign_labels_fraction_bounds(fraction):
    with pytest.raises(errors.ValidationError, match="fraction"):
        assign_labels(random_base_tree(9, 0), fraction, 0)


@pytest.mark.parametrize(
    "options, want",
    [
        (
            dict(preset="random_50", seed=7),
            "b39c5c5b06190215e1ea5fb9b3203bb5cb3fb18a300fa02b2290c358d070b486",
        ),
        (
            dict(max_vertices=60, label_fraction=1.0, seed=1),
            "171169714eb08ba127ee51f271d4a493fb08943df51591b920dd8dc44e870313",
        ),
        (
            dict(preset="random_50", label_fraction=0.0, seed=2),
            "7e4f1a8f1297e288e5502ed9bdb83f0b7b320d8bbdb47f6b0443e36cdb43cdf2",
        ),
        # benchmark scale: known_500's and partial_200's generator settings
        (
            dict(max_vertices=500, label_fraction=1.0, count=4, seed=3),
            "2af8faacde13d93271116dff244ca2b08824d864d471e3d88be5f0219e8879eb",
        ),
        (
            dict(preset="random_200", count=4, seed=5),
            "ddc504674ffb4dfcada098d0b1961fe58dd4730e4eb2a62a702305054800f484",
        ),
    ],
)
def test_gen_bytes_pinned(options, want, tmp_path):
    # one digest over every written file's name and bytes, manifest included;
    # a change to the generator's RNG use or tree surgery moves it
    cmd_gen(tmp_path, **options)
    h = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == want
