from __future__ import annotations

import hashlib
import math
import re
import time
from fractions import Fraction

import pytest

from robustpac import constructions, experiments
from robustpac.constructions import (
    PAIR_CAP,
    make_agnostic_lower_bound,
    make_lower_bound_family,
    make_pair_gap,
    make_proper_failure,
    make_union_truncation,
    make_vc_blowup,
)
from robustpac.core import (
    ContractError,
    LabeledExample,
    StructuralError,
    population_robust_risk,
    robust_loss,
)
from robustpac.dimensions import (
    DimensionWitness,
    disjoint_robust_shattering_dim,
    robust_shattering_dim,
    vc,
    verify_witness,
)
from robustpac.serialization import dumps_instance


def test_blowup_shape_and_counts():
    for m in (1, 2, 3):
        inst = make_vc_blowup(m)
        assert inst.space.size == m + m * 2 ** (m - 1)
        assert len(inst.family) == 2 ** m
        # anchor sets are mutually disjoint
        anchors = inst.anchors["anchors"]
        for i in anchors:
            for j in anchors:
                if i < j:
                    assert not set(inst.perturbations[i]) & set(inst.perturbations[j])


def test_blowup_m1_has_two_members_and_loss_dimension_one():
    inst = make_vc_blowup(1)
    assert len(inst.family) == 2
    pairs = ((0, 1),)
    assert verify_witness(inst.family, DimensionWitness("loss_vc", len(pairs), pairs), inst.perturbations)


def test_blowup_vc_at_most_one_and_loss_class_shatters_anchors():
    for m in (1, 2, 3, 4):
        inst = make_vc_blowup(m)
        assert vc(inst.family).value <= 1
        anchors = tuple((x, 1) for x in inst.anchors["anchors"])
        assert verify_witness(inst.family, DimensionWitness("loss_vc", len(anchors), anchors), inst.perturbations)


def test_blowup_cap_is_enforced():
    with pytest.raises(ContractError):
        make_vc_blowup(9)
    with pytest.raises(ContractError):
        make_vc_blowup(0)


def test_proper_failure_family_size_and_wrongness():
    for m in (1, 2):
        inst = make_proper_failure(m)
        assert len(inst.family) == math.comb(3 * m, m)
        anchors = inst.anchors["anchors"]
        for h in inst.family:
            wrong = sum(
                robust_loss(h, LabeledExample(x, 1), inst.perturbations) for x in anchors
            )
            assert wrong == m


def test_proper_failure_distributions_each_have_a_zero_risk_member():
    inst = make_proper_failure(2)
    assert len(inst.distributions) == math.comb(6, 4)
    for dist in inst.distributions:
        risks = [population_robust_risk(h, dist, inst.perturbations) for h in inst.family]
        assert min(risks) == 0
        # and it is unique: the member wrong exactly on the excluded anchors
        assert risks.count(0) == 1


def test_union_single_block_matches_proper_failure():
    single = make_union_truncation([2])
    direct = make_proper_failure(2)
    assert single.space == direct.space
    assert single.perturbations == direct.perturbations
    assert [h.labels for h in single.family] == [h.labels for h in direct.family]
    assert single.distributions == direct.distributions


def test_union_two_blocks_keeps_vc_at_one():
    inst = make_union_truncation([1, 2])
    assert vc(inst.family).value <= 1


def test_union_members_fail_robustly_on_foreign_anchors():
    inst = make_union_truncation([1, 2])
    sizes = inst.metadata["block_sizes"]
    offsets = inst.metadata["block_offsets"]
    block_anchor_sets = []
    for m, off in zip(sizes, offsets):
        block_anchor_sets.append([off + i for i in range(3 * m)])
    counts = [math.comb(3 * m, m) for m in sizes]
    member = 0
    for j, count in enumerate(counts):
        for _ in range(count):
            h = inst.family[member]
            for jj, anchors in enumerate(block_anchor_sets):
                for x in anchors:
                    loss = robust_loss(h, LabeledExample(x, 1), inst.perturbations)
                    if jj != j:
                        assert loss == 1
            member += 1


def test_pair_gap_dimensions_and_disjointness():
    for p in (1, 2, 3):
        inst = make_pair_gap(p)
        assert disjoint_robust_shattering_dim(inst.family, inst.perturbations).value == 0
        assert robust_shattering_dim(inst.family, inst.perturbations).value == p
        assert vc(inst.family).value == p
        # pairs are mutually disjoint; within a pair the sets share exactly u_i
        for i in range(p):
            a, u, c = 3 * i, 3 * i + 1, 3 * i + 2
            assert set(inst.perturbations[a]) & set(inst.perturbations[c]) == {u}
            for j in range(i + 1, p):
                for x in (3 * i, 3 * i + 2):
                    for z in (3 * j, 3 * j + 2):
                        assert not set(inst.perturbations[x]) & set(inst.perturbations[z])


def test_generators_are_deterministic():
    assert make_vc_blowup(3) == make_vc_blowup(3)
    assert make_pair_gap(4) == make_pair_gap(4)
    assert make_lower_bound_family(3, Fraction(1, 10)) == make_lower_bound_family(3, Fraction(1, 10))


def test_lower_bound_masses_are_exact():
    inst = make_lower_bound_family(4, Fraction(1, 16))
    for dist in inst.distributions:
        assert sum(p for _, p in dist.atoms) == 1
        assert len(dist) == 4


def test_lower_bound_designated_member_has_zero_risk():
    d = 3
    inst = make_lower_bound_family(d, Fraction(1, 10))
    for code, dist in enumerate(inst.distributions):
        assert population_robust_risk(inst.family[code], dist, inst.perturbations) == 0


def test_lower_bound_parameter_ranges():
    with pytest.raises(ContractError):
        make_lower_bound_family(1, Fraction(1, 10))
    with pytest.raises(ContractError):
        make_lower_bound_family(3, Fraction(1, 8))
    with pytest.raises(ContractError):
        make_agnostic_lower_bound(3, 1)
    # string and float parameters follow the probability grammar of instance files
    for make, parameter in [
        (make_lower_bound_family, "1_0/300"),
        (make_lower_bound_family, " +1/20 "),
        (make_lower_bound_family, "1e-999999"),
        (make_lower_bound_family, float("nan")),
        (make_agnostic_lower_bound, float("inf")),
        (make_agnostic_lower_bound, float("-inf")),
        (make_agnostic_lower_bound, "+1/2"),
    ]:
        start = time.perf_counter()
        with pytest.raises(StructuralError, match="cannot parse probability"):
            make(2, parameter)
        assert time.perf_counter() - start < 1
    assert make_lower_bound_family(2, "0.05").metadata["epsilon"] == "1/20"


@pytest.mark.parametrize("make, name", [(make_lower_bound_family, "epsilon"), (make_agnostic_lower_bound, "alpha")])
@pytest.mark.parametrize("value", [True, False])
def test_boolean_generator_parameters_are_refused_by_name(make, name, value):
    with pytest.raises(ContractError, match=f"^{name} must be a number or a decimal or p/q string, got {value}$"):
        make(2, value)


def test_agnostic_lower_bound_best_risk_is_half_one_minus_alpha():
    d, alpha = 3, Fraction(1, 2)
    inst = make_agnostic_lower_bound(d, alpha)
    for dist in inst.distributions:
        assert sum(p for _, p in dist.atoms) == 1
        risks = [population_robust_risk(h, dist, inst.perturbations) for h in inst.family]
        assert min(risks) == (1 - alpha) / 2


# sha256 of dumps_instance for every generator over its range; a layout
# rewrite that moves one byte of any instance document fails here.
GENERATOR_DIGESTS = [
    ("vc_blowup", (1,), "9afb4cf05acb5f2b808eac62c80f516bb1038e0050cc945b55ef4431b2eb9d6c"),
    ("vc_blowup", (2,), "b015d870b3f92b6dfc39b9f1f2c83a49c4c19580dcfac3dd491779725bb6d295"),
    ("vc_blowup", (3,), "4af00b3bcd9aebe00f8671249bf7299d6bd702f09ccef9c3d5195e3d7364ed17"),
    ("vc_blowup", (4,), "bd6fdd26d8b60afd74d116b62f014705329c120adbe2e9d96dee7a3d5ad40b4d"),
    ("vc_blowup", (5,), "7a486bfb636694ab565be4196f768ac092b2f25f97976f997c450ae463123668"),
    ("vc_blowup", (6,), "221c6309523ecf17ce2cd9fac372604649d47071ec0383cfda5cef432e6d4221"),
    ("vc_blowup", (7,), "647442114a329d6b3db1e8856986dbfb16994bd6ad4953ffd7e7377443edf256"),
    ("vc_blowup", (8,), "5a33cac6178f96edc050103fb6f4fbe605a5cf05b4c717db0ecf58bfd8d27058"),
    ("proper_failure", (1,), "4919785cf793a33e4baa2221f92141d311f3b603351f7cbd4199d26bb2ea89a2"),
    ("proper_failure", (2,), "cab187ce7403a0b2c22d1744192c4f5c826f02c6f618798d2af426ec2a3a17bd"),
    ("proper_failure", (3,), "76c4efb8deac49107793e9614d839e7cc56244c0c26bb50a5ce26f67aff8c1d0"),
    ("proper_failure", (4,), "367ff4488e4929112453068c4a3f34db3d8e3afffa08461a8d6ef3ae2011a565"),
    ("pair_gap", (1,), "835d4728b98d96415dc737906a328252f82511ae99c69a08074b338816702069"),
    ("pair_gap", (2,), "77650a6078f5d42ff8ae6d6417bb0ac9a65983902b5cb34fa27d5b7f920c8493"),
    ("pair_gap", (3,), "5642db250b66bd6e385b7ef7daef9f65e97bee8d5a8703c02848cf82d025064e"),
    ("pair_gap", (4,), "0c25d04760408479ed1cece6a21a74b801269e259a8f22bdbe9acb96f35c1554"),
    ("pair_gap", (5,), "7dd899e9aba5d4136ce9fd953ec2c5ff6fcb841598ac154bb2765eb2525022b6"),
    ("pair_gap", (6,), "6d12a5fc5ac23d9b7b5f5ed0c26f7150f581bbbb2f02f1e0a9c933af4da43423"),
    ("pair_gap", (7,), "de62f1e2c0676ac09cbe430691305bd56224d45c65a91c5aef11e24d520ba1ef"),
    ("pair_gap", (8,), "3a658f938122ce5bf7e491fe19649cb0d2619886c167ee6fd4d9478964bcb047"),
    ("pair_gap", (9,), "fda453f0efe968d039e7750d001ae299a5eda1762c8dc4bcf5a29ca619c63ddb"),
    ("pair_gap", (10,), "b400159b2564cb5a66c4f4c147f6bcda48b66c10f178b28144b372a37530a06d"),
    ("lower_bound_family", (2, "1/16"), "57735ac27ff6f121e25d6a4a3875dde5f46dcfaedac88d90b32372c466a65101"),
    ("lower_bound_family", (2, "1/40"), "74f959631339c3a61dbccc2c1083399337ccb92554a39652d5f02ea4a92ba6e7"),
    ("lower_bound_family", (3, "1/16"), "dd54ebba7ec4969751c3d62bdede9fd6c7ac200c6a583350a58ed6c2516aa876"),
    ("lower_bound_family", (3, "1/40"), "c2382b7c2b6b301222b4690de30a86a4b7cab09d153caf57a9fb96fbc716b96b"),
    ("lower_bound_family", (4, "1/16"), "62e523d7bf51050c44970a4744da513bc3f48da9f8f4d2601b949600be888340"),
    ("lower_bound_family", (4, "1/40"), "7b7f42ee23ca67804aa78b6b1d229900e31216178cdb6f3fc321b0e738bb783a"),
    ("lower_bound_family", (5, "1/16"), "b690fb47e2c83da06ee38339f7079ffc78c83245b832fdd9513e507ced7fe63a"),
    ("lower_bound_family", (5, "1/40"), "324201d77f225c5c09ce8c2c0bd73ee206e951172d184bdc3a238555d485bf52"),
    ("lower_bound_family", (6, "1/16"), "9733944514fc764798fbed94701cf5cee5b8704beeb6ac8032608892b70b701a"),
    ("lower_bound_family", (6, "1/40"), "28edd2d30a5c0e059e5274bcf2977cdb8b68f80e8551e24ff958865347c58332"),
    ("lower_bound_family", (7, "1/16"), "5089ebd5a8b2ddbee767358946144d827e777b37fe767d49382b12077b064bcd"),
    ("lower_bound_family", (7, "1/40"), "6107ed51a83e74c4751b630d07d6aa1f8ee6e993c4c9a73a1c548823d51c01c3"),
    ("lower_bound_family", (8, "1/16"), "f9c5d461d44336dff4e6be4442afef4f1d5d2ae51b2f4fe7ff3aefb734a3b8e6"),
    ("lower_bound_family", (8, "1/40"), "c73e54f08113f1319dfcbc3d14dc8fe4d49c3c029c7e0d750962ca9c7a116c48"),
    ("lower_bound_family", (9, "1/16"), "92f9a82467fa2b0b3a4f1338f791af6f2339a90fd7bdf9fc9ceb8f3179d3281d"),
    ("lower_bound_family", (9, "1/40"), "d5801b91c8625c9d16747a064885f2631391101bf905a660e3053e78191110ee"),
    ("lower_bound_family", (10, "1/16"), "01d08dfaf46a6f72f92ef7b75f4099360174d6a4117ffdfbe87941b5f0271701"),
    ("lower_bound_family", (10, "1/40"), "70690c5ae8eb695393a7d60be824adfc937ec73f014ef6e66fbcc40ed3ae93be"),
    ("agnostic_lower_bound", (2, "1/4"), "af1323f0698c83d1643189b99726e77ddcf9191cc6224378365aafb083b422e0"),
    ("agnostic_lower_bound", (2, "1/3"), "e4ef3c5d35ba966e8351901eae029f98c32f3a2cbe95a224aa1916ceec470c44"),
    ("agnostic_lower_bound", (3, "1/4"), "1c17a188ce683a731ea47de8908ae5e895872413e19d87b50fea067202f767e9"),
    ("agnostic_lower_bound", (3, "1/3"), "375563a17b136215f12181976ad71816ce77881361a2af3e8a610bc166f7a0cd"),
    ("agnostic_lower_bound", (4, "1/4"), "4d1287cae1f53bfa4fbdf4079b4c9a3eae88b3d594a067170c28d0c907a8b256"),
    ("agnostic_lower_bound", (4, "1/3"), "97421a0f32a623b537d4ad3aa02f49766c68765f53ccd768f5929f29c26e953d"),
    ("agnostic_lower_bound", (5, "1/4"), "0f363d7feb3cb527727ad39820a5a85bc8a89afb92ea179b1f72ae5908a32423"),
    ("agnostic_lower_bound", (5, "1/3"), "e319a9a2923a33394258974f55bacdf7a838f68a760cb6c3383045e67a5578ce"),
    ("agnostic_lower_bound", (6, "1/4"), "cffc60a74f819cb77413c3d1f4ceb07d03ada40425ca6777ff321e77e01bcf8a"),
    ("agnostic_lower_bound", (6, "1/3"), "7aac3a8103575f8cf2a09d0207e63c7a6fcd5221e82299e92e16eb48ddf67b0a"),
    ("agnostic_lower_bound", (7, "1/4"), "930a99ef9c863316643928da8238d8e8b75a379f53c025b306403923b5686198"),
    ("agnostic_lower_bound", (7, "1/3"), "ff8e95e36af4a19dadb28ae92c1e0a5fcdb6b95a57c75adbd828e3af60586c39"),
    ("agnostic_lower_bound", (8, "1/4"), "2567de1cdf2b0a48a3a8db744b4680e6fd196679fdb7a0ab2f7840539dc8be0a"),
    ("agnostic_lower_bound", (8, "1/3"), "6e78e8da97f7bfbaa87f0c482c3b9e3a208bbe279c954c026ccfe44bfd923435"),
    ("agnostic_lower_bound", (9, "1/4"), "237004dcad1695c1463e4c96e4d6a6dcbcd4aa0237b3c215cf41257f25420ced"),
    ("agnostic_lower_bound", (9, "1/3"), "5df372d50a3c95bb4f1011abfb25c60004822073b84f885987552991cd98f858"),
    ("agnostic_lower_bound", (10, "1/4"), "a5ee1d9819c401f526c7b8cef585fcd4f7c2041e78cd04d0d7bc8ebdeaa37ec4"),
    ("agnostic_lower_bound", (10, "1/3"), "4e9d2e518ac048b2d35311289952d7ce7849c0d9de3ec5094f4ae1f5c750a657"),
    ("union_truncation", ([1, 2],), "d03a38e81ad9a6965028b7e11e16f7c236416bffa4c3a7c60f00c1544e1b61ea"),
    ("union_truncation", ([2, 1, 1],), "058446735eb234a45b0bbe26a9e0e9f0e17f55220d548da8a68a652b2c9f1585"),
    ("threshold_window_instance", (), "7a0a8eb7a05d6bc56a0f7c2bc82b88a996408601aa97e4eae7a4360d6c0184bf"),
]


@pytest.mark.parametrize(
    "generator, args, digest",
    GENERATOR_DIGESTS,
    ids=[f"{g}{list(a)}" for g, a, _ in GENERATOR_DIGESTS],
)
def test_generator_documents_keep_their_bytes(generator, args, digest):
    module = experiments if generator == "threshold_window_instance" else constructions
    instance = getattr(module, "make_" + generator)(*args)
    assert hashlib.sha256(dumps_instance(instance).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "make, d, parameter",
    [(make_lower_bound_family, 11, "1/16"), (make_agnostic_lower_bound, 10**6, "1/4")],
)
def test_lower_bounds_check_the_pair_cap_before_building(make, d, parameter):
    start = time.perf_counter()
    with pytest.raises(ContractError, match=re.escape(f"p={d} exceeds the cap {PAIR_CAP}")):
        make(d, parameter)
    assert time.perf_counter() - start < 1
