import json
import random

import pytest

from hrpks import hierarchy, revocation, serial, sigma
from hrpks.curve_fp import ModPoint
from hrpks.errors import RetryExhausted, SignerRevoked
from hrpks.hierarchy import Hyperplane, PublicKey, add_department, join, \
    new_root
from hrpks.revocation import empty_rl, revoke_group, revoke_member
from hrpks.sigma import (Signature, collapse_constraints, pedersen_commit,
                         sign, verify)

from conftest import TOY_P, make_r3_params, make_small_params, make_toy_params

FINANCIAL = Hyperplane((123, 48, 79))
HR = Hyperplane((752, 36, 139))
ENGINEERING = Hyperplane((937, 58, 32))


def _toy_world(seed=101):
    params, gm = make_toy_params()
    rng = random.Random(seed)
    root = new_root()
    fin = add_department(params, root, rng, name="financial",
                         constraint=FINANCIAL)
    hr = add_department(params, root, rng, name="hr", constraint=HR)
    eng = add_department(params, root, rng, name="engineering",
                         constraint=ENGINEERING)
    return params, gm, rng, root, fin, hr, eng


def test_sign_verify_empty_rl():
    params, gm, rng, root, fin, _hr, _eng = _toy_world()
    sk, pk = join(params, gm, fin, "alice", rng)
    sig = sign(params, sk, pk, empty_rl(), b"hello", rng)
    assert sig.commitments == () and sig.nonzero_proofs == ()
    result = verify(params, pk, empty_rl(), b"hello", sig)
    assert result.accepted


def test_sign_verify_with_nonzero_proof():
    params, gm, rng, root, fin, hr, _eng = _toy_world()
    # the worked-example financial key; confirmed off the HR plane first
    sk, pk = join(params, gm, fin, "emp2", rng, pinned={0: 6789})
    assert HR.evaluate(sk.x, params.q) == \
        (36 * 6789 + 139 * 118608156 + 752) % TOY_P != 0
    rl = revoke_group(empty_rl(), hr)
    sig = sign(params, sk, pk, rl, b"hello", rng)
    assert len(sig.nonzero_proofs) == 1
    assert len(sig.commitments) == params.r
    assert verify(params, pk, rl, b"hello", sig).accepted


def test_sign_fails_for_revoked_department():
    params, gm, rng, root, fin, _hr, _eng = _toy_world()
    sk, pk = join(params, gm, fin, "emp", rng)
    rl = revoke_group(empty_rl(), fin)
    with pytest.raises(SignerRevoked) as exc:
        sign(params, sk, pk, rl, b"hello", rng)
    assert exc.value.entry == "/financial"


def test_sign_fails_for_revoked_member():
    params, gm, rng, root, fin, _hr, _eng = _toy_world()
    sk, pk = join(params, gm, fin, "emp", rng)
    rl = revoke_member(empty_rl(), pk)
    with pytest.raises(SignerRevoked):
        sign(params, sk, pk, rl, b"hello", rng)


def test_sign_requires_matching_key():
    params, gm, rng, root, fin, hr, _eng = _toy_world()
    sk, _pk = join(params, gm, fin, "a", rng)
    _sk2, pk2 = join(params, gm, hr, "b", rng)
    with pytest.raises(ValueError):
        sign(params, sk, pk2, empty_rl(), b"x", rng)


def test_verify_rejects_wrong_message_and_rl_version():
    params, gm, rng, root, fin, hr, _eng = _toy_world()
    sk, pk = join(params, gm, fin, "alice", rng)
    rl = empty_rl()
    sig = sign(params, sk, pk, rl, b"hello", rng)
    assert verify(params, pk, rl, b"hellp", sig).reason == "BAD_CHALLENGE"
    rl2 = revoke_group(rl, hr)
    assert verify(params, pk, rl2, b"hello", sig).reason == "RL_MISMATCH"


def test_verify_rejects_revoked_pk_regardless_of_transcript():
    params, gm, rng, root, fin, _hr, _eng = _toy_world()
    sk, pk = join(params, gm, fin, "alice", rng)
    sig = sign(params, sk, pk, empty_rl(), b"hello", rng)
    rl = revoke_member(empty_rl(), pk)
    # even a signature that was honest under the old list
    res = verify(params, pk, rl, b"hello", sig)
    assert res.reason == "PK_REVOKED"


def test_verify_range_rejection():
    params, gm, rng, root, fin, _hr, _eng = _toy_world()
    sk, pk = join(params, gm, fin, "alice", rng)
    sig = sign(params, sk, pk, empty_rl(), b"hello", rng)
    too_big = Signature(challenge=sig.challenge,
                        s=(sig.s[0], 1 << params.mask_bits),
                        commitments=(), commitment_responses=(),
                        nonzero_proofs=(), retry=0, rl_version=0)
    assert verify(params, pk, empty_rl(), b"hello", too_big).reason == "RANGE"
    negative = Signature(challenge=sig.challenge, s=(-1, sig.s[1]),
                         commitments=(), commitment_responses=(),
                         nonzero_proofs=(), retry=0, rl_version=0)
    assert verify(params, pk, empty_rl(), b"hello", negative).reason == "RANGE"


def test_verify_is_pure():
    params, gm, rng, root, fin, _hr, _eng = _toy_world()
    sk, pk = join(params, gm, fin, "alice", rng)
    sig = sign(params, sk, pk, empty_rl(), b"m", rng)
    first = verify(params, pk, empty_rl(), b"m", sig)
    for _ in range(5):
        assert verify(params, pk, empty_rl(), b"m", sig) == first


def test_response_range_bound_holds():
    params, gm, rng, root, fin, hr, _eng = _toy_world()
    sk, pk = join(params, gm, fin, "alice", rng)
    rl = revoke_group(empty_rl(), hr)
    bound = 1 << params.mask_bits
    for i in range(50):
        sig = sign(params, sk, pk, rl, bytes([i]), rng)
        assert all(0 <= v < bound for v in sig.s)
        assert all(0 <= v < params.q for v in sig.commitment_responses)


# --- Pedersen commitments -------------------------------------------------

def test_commit_identity():
    params, _ = make_toy_params()
    assert pedersen_commit(params, 0, 0) == 1


def test_commit_homomorphism():
    params, _ = make_toy_params()
    q, rho = params.q, params.aux.rho
    rng = random.Random(33)
    for _ in range(50):
        v, w = rng.randrange(q), rng.randrange(q)
        t1, t2 = rng.randrange(q), rng.randrange(q)
        lhs = pedersen_commit(params, v, t1) * pedersen_commit(params, w, t2) \
            % rho
        rhs = pedersen_commit(params, (v + w) % q, (t1 + t2) % q)
        assert lhs == rhs


def test_commit_collision_scan():
    params, _ = make_toy_params()
    q = params.q
    rng = random.Random(35)
    seen = {}
    for _ in range(10 ** 4):
        v, t = rng.randrange(q), rng.randrange(q)
        c = pedersen_commit(params, v, t)
        if c in seen:
            assert seen[c] == (v, t)
        seen[c] = (v, t)


def test_commit_range_check():
    params, _ = make_toy_params()
    with pytest.raises(ValueError):
        pedersen_commit(params, params.q, 0)
    with pytest.raises(ValueError):
        pedersen_commit(params, 0, -1)


# --- aux-group multi-exponentiation -----------------------------------------

def _reference_aux_product(aux, bases, exps):
    """Plain `pow` per term, exponents unreduced (negative ones invert)."""
    acc = 1
    for b, e in zip(bases, exps):
        acc = acc * pow(b, e, aux.rho) % aux.rho
    return acc


def _assert_aux_product_matches(aux, bases, exps):
    terms = [(sigma._aux_table(aux, b), e) for b, e in zip(bases, exps)]
    assert sigma._aux_product(aux, terms) == \
        _reference_aux_product(aux, bases, exps), (bases, exps)


def _aux_product_cases(aux, rng):
    q, w = aux.q, sigma._AUX_WINDOW
    elements = [aux.g, aux.h] + [pow(aux.g, rng.randrange(1, q), aux.rho)
                                 for _ in range(3)]
    edges = [0, 1, 2, q - 1, q, q + 1, 2 * q + 5, (1 << w) - 1, 1 << w,
             (1 << (3 * w)) - 1, rng.getrandbits(317), -1,
             -rng.getrandbits(64), -(3 * q) - 2]
    for e in edges:
        for b in elements[:3]:
            yield [b], [e]
    for e1 in edges:
        for e2 in edges:
            yield elements[:2], [e1, e2]
    yield [], []
    yield [1], [rng.getrandbits(317)]
    yield [1, aux.g], [q - 1, -7]
    yield [aux.g, aux.g], [q - 1, 1]             # repeat that cancels
    yield [aux.h, aux.h, aux.h], [5, 2 * q + 5, -10]
    yield elements, [0] * len(elements)
    for _ in range(30):
        bases = [rng.choice(elements) for _ in range(rng.randrange(1, 10))]
        yield bases, [rng.choice(edges + [rng.randrange(q)]) for _ in bases]


@pytest.mark.parametrize("make_aux", [
    lambda: make_toy_params()[0].aux,                # toy17: 32-bit q
    lambda: hierarchy._build_aux_group((1 << 127) - 1),
], ids=["toy17-q32", "q127"])
def test_aux_product_matches_plain_pow(make_aux):
    aux = make_aux()
    rng = random.Random(aux.q.bit_length())
    for bases, exps in _aux_product_cases(aux, rng):
        _assert_aux_product_matches(aux, bases, exps)


def test_aux_table_holds_every_window_digit():
    params, _ = make_toy_params()
    aux = params.aux
    table = sigma._aux_table(aux, aux.h)
    assert table == [pow(aux.h, k, aux.rho)
                     for k in range(1 << sigma._AUX_WINDOW)]


def test_verify_rejects_commitment_of_order_2q():
    # rho = k*q + 1 with k even, so -C_1 has order 2q. Its exponents may
    # not be reduced mod q: the subgroup check has to reject it before any
    # aux product is taken.
    params, gm, rng, root, fin, hr, _eng = _toy_world(seed=61)
    q, rho = params.q, params.aux.rho
    assert (rho - 1) // q % 2 == 0
    sk, pk = join(params, gm, fin, "alice", rng)
    rl = revoke_group(empty_rl(), hr)
    sig = sign(params, sk, pk, rl, b"m", rng)
    assert verify(params, pk, rl, b"m", sig).accepted
    flipped = rho - sig.commitments[0]
    assert pow(flipped, q, rho) == rho - 1
    c = sig.challenge
    assert pow(flipped, -c % q, rho) != pow(flipped, -c, rho)
    forged = Signature(
        challenge=c, s=sig.s,
        commitments=(flipped,) + sig.commitments[1:],
        commitment_responses=sig.commitment_responses,
        nonzero_proofs=sig.nonzero_proofs, retry=sig.retry,
        rl_version=sig.rl_version)
    assert verify(params, pk, rl, b"m", forged).reason == "MALFORMED"
    # the same for a collapsed commitment: -D_j differs from D_j
    p0 = sig.nonzero_proofs[0]
    negated = sigma.NonzeroProof(gamma_seed_index=p0.gamma_seed_index,
                                 d=rho - p0.d, sw=p0.sw, su=p0.su)
    forged_d = Signature(
        challenge=c, s=sig.s, commitments=sig.commitments,
        commitment_responses=sig.commitment_responses,
        nonzero_proofs=(negated,), retry=sig.retry,
        rl_version=sig.rl_version)
    assert verify(params, pk, rl, b"m", forged_d).reason == "MALFORMED"


# --- constraint collapse ----------------------------------------------------

def test_collapse_singleton_identity():
    q = 1009
    hp = Hyperplane((5, 7, 11))
    assert collapse_constraints([hp], [1], q) == hp


def test_collapse_linearity_on_common_solutions():
    params, _gm = make_r3_params()
    q = params.q
    rng = random.Random(37)
    h1 = Hyperplane((1, 2, 3, 4))
    h2 = Hyperplane((5, 6, 7, 8))
    # find x on both planes
    from hrpks.modmath import solve_affine_mod
    x = solve_affine_mod([h1.linear, h2.linear], [-h1.a0, -h2.a0], q,
                         fill=lambda _: rng.randrange(q))
    assert h1.evaluate(x, q) == 0 and h2.evaluate(x, q) == 0
    for _ in range(100):
        g = [rng.randrange(1, q), rng.randrange(1, q)]
        assert collapse_constraints([h1, h2], g, q).evaluate(x, q) == 0


def test_collapse_schwartz_zippel():
    # small q so the 1/q failure rate is observable and bounded
    q = 257
    rng = random.Random(39)
    h1 = Hyperplane((1, 2, 3))
    h2 = Hyperplane((4, 5, 6))
    x = (1, 1)  # h1: 6 != 0 mod 257, h2: 15 != 0
    assert h1.evaluate(x, q) != 0
    zeros = 0
    trials = 10 ** 4
    for _ in range(trials):
        g = [rng.randrange(1, q), rng.randrange(1, q)]
        if collapse_constraints([h1, h2], g, q).evaluate(x, q) == 0:
            zeros += 1
    # expectation is ~ trials/q = 39; allow generous slack
    assert zeros <= 3 * trials // q + 10


def test_collapse_input_validation():
    q = 257
    hp = Hyperplane((1, 2, 3))
    with pytest.raises(ValueError):
        collapse_constraints([hp], [0], q)  # gamma out of [1, q)
    with pytest.raises(ValueError):
        collapse_constraints([hp], [1, 2], q)
    with pytest.raises(ValueError):
        collapse_constraints([], [], q)


# --- completeness across tree shapes ----------------------------------------

def test_completeness_randomized_r2_r3():
    for params, gm, seed in [(*make_small_params(), 41),
                             (*make_r3_params(), 43)]:
        rng = random.Random(seed)
        root = new_root()
        depts = [add_department(params, root, rng) for _ in range(3)]
        if params.r == 3:
            depts.append(add_department(params, depts[0], rng))
        members = [join(params, gm, d, f"m{i}", rng)
                   for i, d in enumerate(depts)]
        completed = 0
        for t in range(500):
            di = t % len(depts)
            sk, pk = members[di]
            # revoke one *other* top-level department
            others = [d for d in depts if d.path.split("/")[1]
                      != sk.dept.split("/")[1]]
            rl = empty_rl()
            if t % 3 != 0:
                rl = revoke_group(rl, others[t % len(others)])
            if any(all(hp.evaluate(sk.x, params.q) == 0
                       for hp in e.constraints) for e in rl.groups):
                continue  # rare: key accidentally on the other plane
            msg = f"msg {t}".encode()
            sig = sign(params, sk, pk, rl, msg, rng)
            assert verify(params, pk, rl, msg, sig).accepted
            completed += 1
        assert completed >= 450  # nearly all attempts were signable


def test_statistical_masking_smoke():
    # mean of s_i relative to the mask ceiling sits at 1/2 within 3 sigma
    params, gm = make_small_params(l_s=24)
    rng = random.Random(47)
    root = new_root()
    dept = add_department(params, root, rng)
    sk, pk = join(params, gm, dept, "m", rng)
    scale = 1 << params.mask_bits
    total = 0
    count = 0
    n_sigs = 10 ** 4
    for i in range(n_sigs):
        sig = sign(params, sk, pk, empty_rl(), i.to_bytes(4, "big"), rng)
        for v in sig.s:
            total += v / scale
            count += 1
    mean = total / count
    sigma_mean = (1 / 12) ** 0.5 / count ** 0.5
    assert abs(mean - 0.5) < 3 * sigma_mean


def _craft_key_hitting_zero_collapse():
    """A key off a revoked two-constraint set whose retry-0 collapse still
    evaluates to zero: solve for the key after fixing the list (and hence
    the hash-derived gammas)."""
    from hrpks.modmath import rank_mod, solve_affine_mod
    from hrpks.revocation import rl_hash

    params, gm = make_r3_params()
    q = params.q
    rng = random.Random(59)
    root = new_root()
    mine = add_department(params, root, rng, name="mine")
    other = add_department(params, root, rng, name="other")
    line = add_department(params, other, rng, name="line")
    rl = revoke_group(empty_rl(), line)

    g = mine.constraints[0]
    f1, f2 = line.constraints
    rows = [g.linear, f1.linear, f2.linear]
    assert rank_mod(rows, q) == 3  # seed chosen so the system is square

    gammas = sigma._derive_gammas(params, rl_hash(rl), 0, 2, retry=0)
    t = -gammas[0] * pow(gammas[1], -1, q) % q
    assert t != 0
    # g(x) = 0, f1(x) = 1, f2(x) = t  =>  collapsed value at retry 0 is
    # gamma1*1 + gamma2*t = 0 while x is off the revoked set
    x = tuple(solve_affine_mod(
        rows, [-g.a0, (1 - f1.a0) % q, (t - f2.a0) % q], q,
        fill=lambda _j: rng.randrange(q)))
    assert g.evaluate(x, q) == 0
    assert f1.evaluate(x, q) == 1 and f2.evaluate(x, q) == t
    collapsed = collapse_constraints([f1, f2], gammas, q)
    assert collapsed.evaluate(x, q) == 0

    from hrpks.curve_fp import msm
    from hrpks.hierarchy import SecretKey
    sk = SecretKey(x=x, member_id="crafted", dept=mine.path)
    pk = PublicKey(point=msm(params.curve, x, params.gens),
                   member_id="crafted", dept=mine.path)
    return params, sk, pk, rl, rng


def test_zero_collapse_triggers_retry_then_succeeds():
    params, sk, pk, rl, rng = _craft_key_hitting_zero_collapse()
    sig = sign(params, sk, pk, rl, b"needs a second try", rng)
    assert sig.retry >= 1
    assert all(p.gamma_seed_index == sig.retry for p in sig.nonzero_proofs)
    assert verify(params, pk, rl, b"needs a second try", sig).accepted


def test_retry_exhausted_is_signaled(monkeypatch):
    params, sk, pk, rl, rng = _craft_key_hitting_zero_collapse()
    original = sigma._derive_gammas

    def stuck(params_, rlh, set_index, set_size, retry):
        return original(params_, rlh, set_index, set_size, 0)

    monkeypatch.setattr(sigma, "_derive_gammas", stuck)
    with pytest.raises(RetryExhausted):
        sign(params, sk, pk, rl, b"never works", rng)
    assert sigma.MAX_COLLAPSE_ATTEMPTS == 64


# --- transcript binding -----------------------------------------------------

def _mutate_doc(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaf_paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaf_paths(v, prefix + (i,))
    else:
        yield prefix, node


def test_single_field_mutation_flips_to_reject():
    params, gm, rng, root, fin, hr, eng = _toy_world(seed=51)
    sk, pk = join(params, gm, fin, "alice", rng)
    rl = revoke_group(revoke_group(empty_rl(), hr), eng)
    msg = b"the signed message"
    sig = sign(params, sk, pk, rl, msg, rng)
    assert verify(params, pk, rl, msg, sig).accepted

    doc = json.loads(serial.serialize_artifact("signature", sig))
    mutated_fields = 0
    for path, value in list(_leaf_paths(doc)):
        if path[0] in ("kind", "version"):
            continue  # format framing, not signature content
        fresh = json.loads(serial.serialize_artifact("signature", sig))
        assert isinstance(value, str)
        if value.lstrip("-").isdigit():
            _mutate_doc(fresh, path, str(int(value) + 1))
        else:
            _mutate_doc(fresh, path, value + "x")
        tampered = serial.deserialize_artifact(json.dumps(fresh))
        res = verify(params, pk, rl, msg, tampered)
        assert not res.accepted, f"mutation at {path} still accepted"
        mutated_fields += 1
    # c, 2x s, 2x C, 2x st, 2x proofs x 4 fields, retry, rl_version
    assert mutated_fields >= 16

    # input-side mutations
    assert not verify(params, pk, rl, msg + b"!", sig).accepted
    moved = PublicKey(point=pk.point, member_id="allce", dept=pk.dept,
                      cert=pk.cert)
    assert not verify(params, moved, rl, msg, sig).accepted
    moved2 = PublicKey(point=pk.point, member_id=pk.member_id, dept="/hr",
                       cert=pk.cert)
    assert not verify(params, moved2, rl, msg, sig).accepted
    other_pk = PublicKey(point=params.gens[0], member_id=pk.member_id,
                         dept=pk.dept, cert=pk.cert)
    assert not verify(params, other_pk, rl, msg, sig).accepted
    params_b, _ = make_toy_params(seed=777)
    assert not verify(params_b, pk, rl, msg, sig).accepted


def test_structural_rejections():
    params, gm, rng, root, fin, hr, _eng = _toy_world(seed=57)
    sk, pk = join(params, gm, fin, "alice", rng)
    rl = revoke_group(empty_rl(), hr)
    sig = sign(params, sk, pk, rl, b"m", rng)

    def variant(**kw):
        fields = dict(challenge=sig.challenge, s=sig.s,
                      commitments=sig.commitments,
                      commitment_responses=sig.commitment_responses,
                      nonzero_proofs=sig.nonzero_proofs, retry=sig.retry,
                      rl_version=sig.rl_version)
        fields.update(kw)
        return Signature(**fields)

    # wrong vector lengths
    assert verify(params, pk, rl, b"m",
                  variant(s=sig.s[:1])).reason == "MALFORMED"
    assert verify(params, pk, rl, b"m",
                  variant(nonzero_proofs=())).reason == "MALFORMED"
    assert verify(params, pk, rl, b"m",
                  variant(commitments=sig.commitments[:1])).reason == \
        "MALFORMED"
    # commitment outside the order-q subgroup
    bad_c = 2
    while pow(bad_c, params.q, params.aux.rho) == 1:
        bad_c += 1
    assert verify(params, pk, rl, b"m",
                  variant(commitments=(bad_c,) + sig.commitments[1:])
                  ).reason == "MALFORMED"
    # gamma seed index disagreeing with the retry counter
    p0 = sig.nonzero_proofs[0]
    crooked = sigma.NonzeroProof(gamma_seed_index=p0.gamma_seed_index + 1,
                                 d=p0.d, sw=p0.sw, su=p0.su)
    assert verify(params, pk, rl, b"m",
                  variant(nonzero_proofs=(crooked,))).reason == "MALFORMED"
    # commitments present although the list has no groups
    sig_plain = sign(params, sk, pk, empty_rl(), b"m", rng)
    stuffed = Signature(challenge=sig_plain.challenge, s=sig_plain.s,
                        commitments=(5,), commitment_responses=(1,),
                        nonzero_proofs=(), retry=0, rl_version=0)
    assert verify(params, pk, empty_rl(), b"m", stuffed).reason == "MALFORMED"
    # off-curve public key never raises, only rejects
    from hrpks.curve_fp import ModPoint
    crooked_pk = PublicKey(point=ModPoint(1, 1), member_id="x", dept="/y")
    assert verify(params, crooked_pk, rl, b"m", sig).reason == "MALFORMED"
    # revocation entry with the wrong dimensionality rejects cleanly too
    from hrpks.revocation import ConstraintSet, RevocationList
    wide = RevocationList(
        members=rl.members,
        groups=(ConstraintSet(path=rl.groups[0].path,
                              constraints=(Hyperplane((1, 2, 3, 4, 5)),)),),
        version=rl.version)
    assert verify(params, pk, wide, b"m", sig).reason == "MALFORMED"


def test_forged_random_transcripts_rejected():
    params, gm, rng, root, fin, hr, _eng = _toy_world(seed=53)
    sk, pk = join(params, gm, fin, "alice", rng)
    rl = revoke_group(empty_rl(), hr)
    bound = 1 << params.mask_bits
    q, rho = params.q, params.aux.rho
    for trial in range(100):
        forged = Signature(
            challenge=rng.randrange(1 << params.l_c),
            s=tuple(rng.randrange(bound) for _ in range(params.r)),
            commitments=tuple(pow(params.aux.g, rng.randrange(q), rho)
                              for _ in range(params.r)),
            commitment_responses=tuple(rng.randrange(q)
                                       for _ in range(params.r)),
            nonzero_proofs=(sigma.NonzeroProof(
                gamma_seed_index=0, d=rng.randrange(1, rho),
                sw=rng.randrange(q), su=rng.randrange(q)),),
            retry=0, rl_version=rl.version)
        assert not verify(params, pk, rl, b"forged", forged).accepted


def test_sign_caches_the_key_check_per_secret_key(monkeypatch):
    import gc

    from hrpks import hierarchy

    params, gm, rng, root, fin, hr, _eng = _toy_world(seed=131)
    joined, pk = join(params, gm, fin, "a", rng)
    sk2, pk2 = join(params, gm, hr, "b", rng)
    calls = []
    real = hierarchy.msm

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(hierarchy, "msm", counting)
    sign(params, joined, pk, empty_rl(), b"zero", rng)
    assert len(calls) == 1  # join recorded the match: commitment only
    # an equal key from elsewhere (a file, say) is checked once
    sk = hierarchy.SecretKey(x=joined.x, member_id="a", dept=fin.path)
    del joined
    gc.collect()
    sign(params, sk, pk, empty_rl(), b"one", rng)
    assert len(calls) == 3  # key check and commitment
    sign(params, sk, pk, empty_rl(), b"two", rng)
    assert len(calls) == 4  # commitment only
    # a cached match never vouches for another pair
    with pytest.raises(ValueError, match="does not match"):
        sign(params, sk, pk2, empty_rl(), b"x", rng)
    with pytest.raises(ValueError, match="does not match"):
        sign(params, sk2, pk, empty_rl(), b"x", rng)
    other, _ = make_small_params()  # r = 2, other generators
    with pytest.raises(ValueError, match="does not match"):
        sign(other, sk, pk, empty_rl(), b"x", rng)
    sign(params, sk, pk, empty_rl(), b"three", rng)
    # the cache holds secret keys weakly
    assert sk in hierarchy._KEY_MATCHES
    before = len(hierarchy._KEY_MATCHES)
    del sk
    gc.collect()
    assert len(hierarchy._KEY_MATCHES) == before - 1
