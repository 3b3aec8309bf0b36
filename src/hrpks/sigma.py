"""The signature system: a Fiat-Shamir proof of knowledge of the public
key's representation over E(F_p), linked through Pedersen commitments in
the auxiliary group to one nonzero proof per revoked constraint set.

One transcript, one challenge c:

  E(F_p) side      R = sum k_i * G_i,          s_i = k_i + c * x_i  (over Z)
  commitment side  C_i = g^x_i h^t_i,          A_i = g^k_i h^u_i,
                   st_i = u_i + c * t_i        (mod q)
  nonzero side     collapse each revoked set to one hyperplane f_j via
                   hash-derived gammas, D_j = g^f_j(0) prod C_i^f_j[i]
                   = g^v_j h^tau_j with v_j = f_j(x); knowing w_j = 1/v_j
                   exhibits g in base (D_j, h). B_j = D_j^kw_j h^ku_j,
                   sw_j = kw_j + c * w_j,
                   su_j = ku_j + c * (-tau_j * w_j)  (mod q).

The nonzero proof binds only while log_g h is unknown: with it, g can be
exhibited in base (D_j, h) even when v_j = 0. Today h is g raised to a
hash-derived exponent, so log_g h is public and the proof does not bind;
it stays so until h is derived with no known logarithm (ROADMAP item 2).

D_j is neither sent nor hashed: it is a function of the C_i, the revocation
list and the retry counter, and the challenge hashes all of those, so the
transcript still fixes every statement the extractor needs. The collapsed
hyperplanes are computed once per (revocation list, q, r, retry) and kept
on the list, so signatures checked against one published list share them.

Every auxiliary-group value either side makes is one `_aux_product`,
g^a h^b prod C_i^e_i: g and h from the fixed-base table of their powers,
which is built once per aux group and kept across calls, with no
squaring, and the C_i, if any, on one chain over their combs (Lim and
Lee), which `verify` builds once per call and also reads for its check
C_i^q = 1. `sign` knows the opening of every value it makes,
C_i = g^x_i h^t_i, A_i = g^k_i h^u_i and, since D_j = g^v_j h^tau_j,
B_j = g^(v_j kw_j) h^(tau_j kw_j + ku_j), so it makes no comb. `verify`
has no openings: it checks each A_i = g^s_i h^st_i C_i^-c and, expanding
D_j, each B_j = g^(a0 sw - c) h^su prod C_i^(a_i sw) as one product.
Signer and verifier hash their transcript through the one `_challenge`,
and a test checks that sign's announcements are verify's equations at
c = 0 with the nonces in place of the responses.

Responses on the curve side stay integers (never reduced): the group order
of E(F_p) is deliberately not assumed known, so a statistical-gap slack of
l_s bits hides the secret instead of a modular reduction. The linkage
assumes extracted representations agree mod q across the two groups; this
is a documented modeling assumption of the construction, not a proved
reduction.

Nothing here is constant-time.
"""

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .curve_fp import ModPoint, _comb_index, on_curve_fp
from .encoding import hash_to_challenge
from .errors import InvariantError, RetryExhausted, SignerRevoked
from .hierarchy import (AuxGroup, Hyperplane, PublicKey, SecretKey,
                        SystemParams, _key_parts, require_key_pair,
                        verify_cert)
from .revocation import RevocationList, is_member_revoked, rl_hash

CHALLENGE_TAG = b"HRPKS-v1/chal"
GAMMA_TAG = b"HRPKS-v1/gamma"
MAX_COLLAPSE_ATTEMPTS = 64
# Window width of the rows of the cached g and h table, which sign and
# verify both read (the C_i use combs, `_AUX_TEETH`). By measurement
# (min of 60 interleaved runs, Python 3.11, shared 2-vCPU host), for
# q = 2^127 - 1, r = 8 and 16 revoked sets: sign 2.32, 2.30 and 2.16 ms at
# w = 4, 5, 6, while the table, which every fresh process builds on its
# first sign or verify, takes 54, 86 and 144 KiB and 0.40, 0.65 and
# 1.11 ms; for the 32-bit toy q, r = 2 and 3 sets: sign 0.43, 0.41 and
# 0.43 ms.
_AUX_WINDOW = 5
# How many aux groups' g and h tables `_gh_table` keeps.
_GH_CACHE_SIZE = 8
# Teeth of the comb `verify` builds of each C_i, once per call: 2^t
# entries after (t - 1) d squarings and 2^t - 1 multiplications, with
# d = ceil(bitlen(q) / t) columns, so each product the comb serves makes d
# squarings. For q = 2^127 - 1, r = 8 and 16 revoked sets, the combs, the
# r order checks and the r + 16 products of one verify took 2.41, 2.36 and
# 2.44 ms at t = 5, 6 and 7, where the window tables, `pow` checks and
# Straus chains they replace took 2.77 ms (in-process, best of four
# readings of the min of 5 x 200 runs, Python 3.11, shared 2-vCPU host).
# On the 32-bit toy q, with r = 2, the combs cost about 20 us more per
# verify than the window tables did (BENCH_30.json).
_AUX_TEETH = 6


@dataclass(frozen=True)
class NonzeroProof:
    """Per revoked constraint set: the response pair proving that the
    collapsed commitment D_j, which the verifier rebuilds from the C_i, the
    list and `Signature.retry`, commits to a value with an inverse."""

    sw: int
    su: int


@dataclass(frozen=True)
class Signature:
    challenge: int
    s: Tuple[int, ...]
    commitments: Tuple[int, ...]            # C_i; empty unless RL has groups
    commitment_responses: Tuple[int, ...]   # st_i; parallel to commitments
    nonzero_proofs: Tuple[NonzeroProof, ...]
    retry: int
    rl_version: int

    def __post_init__(self):
        object.__setattr__(self, "s", tuple(self.s))
        object.__setattr__(self, "commitments", tuple(self.commitments))
        object.__setattr__(self, "commitment_responses",
                          tuple(self.commitment_responses))
        object.__setattr__(self, "nonzero_proofs", tuple(self.nonzero_proofs))


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: Optional[str] = None


PK_REVOKED = "PK_REVOKED"
RL_MISMATCH = "RL_MISMATCH"
RANGE = "RANGE"
MALFORMED = "MALFORMED"
BAD_CHALLENGE = "BAD_CHALLENGE"
UNCERTIFIED = "UNCERTIFIED"


def _aux_table(aux: AuxGroup, base: int):
    """base^0, base^1, ..., base^(2^w - 1) mod rho: one row of the
    fixed-base table of g and h."""
    table = [1, base % aux.rho]
    for _ in range(2, 1 << _AUX_WINDOW):
        table.append(table[-1] * base % aux.rho)
    return tuple(table)


@functools.lru_cache(maxsize=_GH_CACHE_SIZE)
def _gh_table(aux: AuxGroup):
    """The fixed-base table of g and h, cached by aux group: row k pairs
    the `_aux_table` of g^(2^(w k)) with that of h^(2^(w k)), for the
    ceil(bitlen(q) / w) rows an exponent below q needs. Built with plain
    multiplications: the first power of row k + 1 is the last of row k
    times its first."""
    rows, g, h, rho = [], aux.g, aux.h, aux.rho
    for _ in range(-(-aux.q.bit_length() // _AUX_WINDOW)):
        g_row, h_row = _aux_table(aux, g), _aux_table(aux, h)
        rows.append((g_row, h_row))
        g, h = g_row[-1] * g % rho, h_row[-1] * h % rho
    return tuple(rows)


def _comb_columns(aux: AuxGroup) -> int:
    """d = ceil(bitlen(q) / t): the columns of an `_aux_comb`, so that
    every exponent below q, and q itself, is below 2^(d t)."""
    return -(-aux.q.bit_length() // _AUX_TEETH)


def _aux_comb(aux: AuxGroup, base: int):
    """The comb of one base (Lim and Lee, "More Flexible Exponentiation
    with Precomputation", CRYPTO 1994): entry m is the product of the
    teeth base^(2^(d k)), k < t, over the set bits k of m. Made with
    (t - 1) d squarings for the teeth, then one multiplication per entry
    past the first: entries 2^k .. 2^(k+1) - 1 are entries 0 .. 2^k - 1
    times tooth k."""
    rho, d = aux.rho, _comb_columns(aux)
    teeth = [base % rho]
    for _ in range(_AUX_TEETH - 1):
        tooth = teeth[-1]
        for _ in range(d):
            tooth = tooth * tooth % rho
        teeth.append(tooth)
    table = [1]
    for tooth in teeth:
        table += [entry * tooth % rho for entry in table]
    return tuple(table)


def _comb_product(aux: AuxGroup, terms) -> int:
    """prod base^e mod rho over (`_aux_comb` of base, e) terms, each
    0 <= e < 2^(d t), on one chain: per column, top column first, one
    squaring, then the column's entry of every term, reduced once. e is
    taken as given, not reduced mod q, so the result is exact for any
    base: C_i^q on C_i's comb is verify's subgroup check."""
    rho, d = aux.rho, _comb_columns(aux)
    digits, index = f"0{d * _AUX_TEETH}b", _comb_index(_AUX_TEETH)
    rows = []
    for comb, e in terms:
        # column k gathers bit d*j + (d - 1 - k) of e into bit j
        bits = format(e, digits)
        rows.append([comb[index[bits[k::d]]] for k in range(d)])
    acc = 1
    for column in zip(*rows):
        acc = acc * acc % rho
        for entry in column:
            acc *= entry
        acc %= rho
    return acc


def _aux_product(aux: AuxGroup, a: int, b: int, terms=()) -> int:
    """g^a h^b prod base^e mod rho, over (`_aux_comb` of base, e) terms.

    The terms share one `_comb_product` chain; with no terms there is
    none. g and h then take one entry per digit from every row of the
    cached `_gh_table`, with no squarings (Brickell, Gordon, McCurley and
    Wilson, "Fast Exponentiation with Precomputation", EUROCRYPT 1992),
    both entries of a row reduced once.

    a, b and each e are reduced mod q first, so they may be negative or
    exceed q; that is valid only because every base has order dividing q:
    g and h, which `AuxGroup` checks, and the C_i, once `_verify_proof`
    has checked C_i^q = 1, before any product. On any other base the
    result is wrong.
    """
    q, rho, w = aux.q, aux.rho, _AUX_WINDOW
    mask = (1 << w) - 1
    acc = _comb_product(aux, [(comb, e % q) for comb, e in terms]) \
        if terms else 1
    a, b = a % q, b % q
    for g_row, h_row in _gh_table(aux):
        acc = acc * g_row[a & mask] * h_row[b & mask] % rho
        a >>= w
        b >>= w
    return acc


def pedersen_commit(params: SystemParams, value: int, randomness: int) -> int:
    """g^value * h^randomness in the auxiliary group."""
    if not 0 <= value < params.q or not 0 <= randomness < params.q:
        raise ValueError("commitment inputs must lie in [0, q)")
    return _aux_product(params.aux, value, randomness)


def collapse_constraints(constraints: Sequence[Hyperplane],
                         gammas: Sequence[int], q: int) -> Hyperplane:
    """Coefficient-wise random linear combination of a constraint set.

    Anything off at least one input hyperplane stays off the collapsed one
    except with probability 1/q over the gammas (Schwartz-Zippel).
    """
    if len(gammas) != len(constraints):
        raise ValueError("need one gamma per constraint")
    if not constraints:
        raise ValueError("empty constraint set")
    if any(not 1 <= g < q for g in gammas):
        raise ValueError("gammas must lie in [1, q)")
    width = len(constraints[0].coeffs)
    coeffs = [0] * width
    for gamma, hp in zip(gammas, constraints):
        if len(hp.coeffs) != width:
            raise ValueError("mixed-dimension constraint set")
        for i, a in enumerate(hp.coeffs):
            coeffs[i] = (coeffs[i] + gamma * a) % q
    return Hyperplane(tuple(coeffs))


def _derive_gammas(params: SystemParams, rlh: bytes, set_index: int,
                   set_size: int, retry: int):
    """Per-constraint collapse coefficients in [1, q), from the transcript
    context. The +1 keeps zero out, as the collapse requires."""
    bits = params.q.bit_length() - 1
    return [hash_to_challenge(GAMMA_TAG, [rlh, set_index, ell, retry], bits) + 1
            for ell in range(set_size)]


def _challenge(params: SystemParams, pk: PublicKey, rlh: bytes, retry: int,
               big_r: ModPoint, commitments, announcements, bs,
               message: bytes) -> int:
    parts = [params.digest(), _key_parts(pk), rlh, retry, big_r,
             list(commitments), list(announcements), list(bs), message]
    return hash_to_challenge(CHALLENGE_TAG, parts, params.l_c)


def _collapse_all(params: SystemParams, rl: RevocationList, retry: int):
    """The collapsed hyperplane of each revoked set at this retry, as a
    tuple. Computed once per (list, q, r, retry) and kept on the list: the
    gammas depend on nothing else. Raises ValueError or InvariantError on
    a set that is not r-dimensional or collapses to no hyperplane, and
    keeps nothing then."""
    key = (params.q, params.r, retry)
    memo = rl._collapse_memo
    if key not in memo:
        rlh = rl_hash(rl)
        collapsed = []
        for j, entry in enumerate(rl.groups):
            gammas = _derive_gammas(params, rlh, j, len(entry.constraints),
                                    retry)
            # the collapse refuses mixed widths, so one width is left
            hp = collapse_constraints(entry.constraints, gammas, params.q)
            if len(hp.coeffs) != params.r + 1:
                raise ValueError("constraint dimension disagrees with r")
            collapsed.append(hp)
        memo[key] = tuple(collapsed)
    return memo[key]


def _rebuild_challenge(params: SystemParams, pk: PublicKey, rlh: bytes,
                       retry: int, collapsed, c: int, s, commitments, combs,
                       st, proofs, message: bytes) -> int:
    """The challenge over verify's equations R = sum s_i G_i - c pk,
    A_i = g^s_i h^st_i C_i^-c and B_j = D_j^sw_j h^su_j g^-c. At c = 0,
    with nonces in place of the responses, they are sign's announcements.

    `combs` holds the `_aux_comb` of each C_i, and every C_i must already
    be in the order-q subgroup, as `_aux_product` requires of its bases."""
    aux = params.aux
    big_r = params.gens_msm(s, ((-c, pk.point),))
    announcements = [_aux_product(aux, s_i, st_i, [(comb, -c)])
                     for s_i, st_i, comb in zip(s, st, combs)]
    # D_j expanded: B_j = g^(a0 sw - c) h^su prod C_i^(a_i sw)
    bs = [_aux_product(aux, hp.a0 * proof.sw - c, proof.su,
                       [(comb, a * proof.sw)
                        for comb, a in zip(combs, hp.linear)])
          for hp, proof in zip(collapsed, proofs)]
    return _challenge(params, pk, rlh, retry, big_r, commitments,
                      announcements, bs, message)


def sign(params: SystemParams, sk: SecretKey, pk: PublicKey,
         rl: RevocationList, message: bytes, rng) -> Signature:
    """Sign `message` relative to the given revocation list.

    Raises SignerRevoked when the public key is listed or the secret key
    satisfies every hyperplane of some revoked constraint set (there is no
    nonzero witness in that case, by design). Raises RetryExhausted when
    the hash-derived collapse keeps landing on zero, which honest setups
    never hit in practice.
    """
    q, aux = params.q, params.aux
    if len(sk.x) != params.r:
        raise ValueError("secret key dimension disagrees with params")
    require_key_pair(params, sk, pk)
    if is_member_revoked(rl, pk):
        raise SignerRevoked("public key is on the revocation list")
    for entry in rl.groups:
        if all(hp.evaluate(sk.x, q) == 0 for hp in entry.constraints):
            raise SignerRevoked(
                f"secret key lies on revoked constraint set {entry.path!r}",
                entry=entry.path)

    # Masks are shaved by 2^(bitlen(q)+l_c) so s = k + c*x always stays
    # below the verifier's 2^(bitlen(q)+l_c+l_s) range bound.
    mask_top = (1 << params.mask_bits) - (1 << (params.q.bit_length() + params.l_c))
    ks = [rng.randrange(mask_top) for _ in range(params.r)]

    commitments, ts, us = [], [], []
    if rl.groups:
        for xi in sk.x:
            ts.append(rng.randrange(q))
            us.append(rng.randrange(q))
            commitments.append(pedersen_commit(params, xi, ts[-1]))

    for retry in range(MAX_COLLAPSE_ATTEMPTS):
        collapsed = _collapse_all(params, rl, retry)
        vs = [hp.evaluate(sk.x, q) for hp in collapsed]
        if all(vs):
            break
    else:
        raise RetryExhausted(
            f"collapse evaluated to zero {MAX_COLLAPSE_ATTEMPTS} "
            "times; check the RNG and the size of q")

    nonces = [(rng.randrange(q), rng.randrange(q))
              for _ in collapsed]  # (kw_j, ku_j)
    # D_j = g^v_j h^tau_j
    taus = [sum(a * t for a, t in zip(hp.linear, ts)) % q for hp in collapsed]
    announcements = [_aux_product(aux, k, u)
                     for k, u in zip(ks, us)]  # none if no C_i
    bs = [_aux_product(aux, v * kw, tau * kw + ku)
          for v, tau, (kw, ku) in zip(vs, taus, nonces)]
    c = _challenge(params, pk, rl_hash(rl), retry, params.gens_msm(ks),
                   commitments, announcements, bs, message)

    s = tuple(k + c * x for k, x in zip(ks, sk.x))
    st = tuple((u + c * t) % q for u, t in zip(us, ts))
    proofs = []
    for v, tau, (kw, ku) in zip(vs, taus, nonces):
        # w = 1/v opens g in base (D_j, h): D_j^w h^(-tau w) = g
        w = pow(v, -1, q)
        proofs.append(NonzeroProof(sw=(kw + c * w) % q,
                                   su=(ku - c * tau * w) % q))
    return Signature(challenge=c, s=s, commitments=tuple(commitments),
                     commitment_responses=st, nonzero_proofs=proofs,
                     retry=retry, rl_version=rl.version)


def _int_in(v, lo: int, hi: int) -> bool:
    """Whether v is an int, not a bool, in [lo, hi): the one test of every
    numeric signature field."""
    return type(v) is int and lo <= v < hi


def _reject_reason(params: SystemParams, rl: RevocationList, pk: PublicKey,
                   sig: Signature) -> Optional[str]:
    """The reason `verify` rejects `sig` before any group arithmetic, or
    None. Decided for any `Signature` value, loaded or built in code: every
    field is tested before anything reads it. A retry counter `sign` may
    not use is refused here, which also bounds each list's memo of
    `_collapse_all` results. Whether each C_i lies in the order-q
    subgroup is left to `_verify_proof`, which decides it on the comb it
    builds of C_i anyway."""
    q, rho = params.q, params.aux.rho
    # an int equal to the list's version
    if not _int_in(sig.rl_version, rl.version, rl.version + 1):
        return RL_MISMATCH
    if not on_curve_fp(params.curve, pk.point):
        return MALFORMED
    if not all(_int_in(v, 0, 1 << params.mask_bits) for v in sig.s):
        return RANGE
    width = params.r if rl.groups else 0  # no C_i unless RL has groups
    proofs = sig.nonzero_proofs
    if (not _int_in(sig.retry, 0, MAX_COLLAPSE_ATTEMPTS)
            or not _int_in(sig.challenge, 0, 1 << params.l_c)
            or len(sig.s) != params.r
            or len(sig.commitments) != width
            or len(sig.commitment_responses) != width
            or len(proofs) != len(rl.groups)
            or not all(_int_in(c, 1, rho) for c in sig.commitments)
            or not all(_int_in(v, 0, q) for v in sig.commitment_responses)
            or not all(isinstance(nz, NonzeroProof) and _int_in(nz.sw, 0, q)
                       and _int_in(nz.su, 0, q) for nz in proofs)):
        return MALFORMED
    return None


def verify(params: SystemParams, pk: PublicKey, rl: RevocationList,
           message: bytes, sig: Signature) -> VerifyResult:
    """Total verification: every failure is a Reject with a reason, never
    an exception. A key must carry a valid GM certificate for exactly its
    point, member id and department (`verify_cert`), or it is rejected
    UNCERTIFIED, whatever it signed."""
    if is_member_revoked(rl, pk):
        return VerifyResult(False, PK_REVOKED)
    if not verify_cert(params, pk):
        return VerifyResult(False, UNCERTIFIED)
    return _verify_proof(params, pk, rl, message, sig)


def _verify_proof(params: SystemParams, pk: PublicKey, rl: RevocationList,
                  message: bytes, sig: Signature) -> VerifyResult:
    """`verify` without the list's member check and the certificate
    check: the proof alone, as a certificate check runs it on the GM key,
    which has no certificate."""
    reason = _reject_reason(params, rl, pk, sig)
    if reason is not None:
        return VerifyResult(False, reason)
    aux = params.aux
    combs = [_aux_comb(aux, c) for c in sig.commitments]
    # C_i^q with q unreduced, below 2^(d t): exact for any C_i
    if any(_comb_product(aux, [(comb, params.q)]) != 1 for comb in combs):
        return VerifyResult(False, MALFORMED)
    try:
        collapsed = _collapse_all(params, rl, sig.retry)
    except (InvariantError, ValueError):
        return VerifyResult(False, MALFORMED)
    expected = _rebuild_challenge(
        params, pk, rl_hash(rl), sig.retry, collapsed, sig.challenge, sig.s,
        sig.commitments, combs, sig.commitment_responses,
        sig.nonzero_proofs, message)
    if expected != sig.challenge:
        return VerifyResult(False, BAD_CHALLENGE)
    return VerifyResult(True)
