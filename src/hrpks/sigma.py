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
                   exhibits g in base (D_j, h), which is impossible when
                   v_j = 0.

Every auxiliary-group product (C_i, A_i, D_j, B_j) is one Straus
multi-exponentiation over window tables built once per sign or verify call.

Responses on the curve side stay integers (never reduced): the group order
of E(F_p) is deliberately not assumed known, so a statistical-gap slack of
l_s bits hides the secret instead of a modular reduction. The linkage
assumes extracted representations agree mod q across the two groups; this
is a documented modeling assumption of the construction, not a proved
reduction.

Nothing here is constant-time.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .curve_fp import ModPoint, msm, on_curve_fp
from .encoding import hash_to_challenge
from .errors import InvariantError, RetryExhausted, SignerRevoked
from .hierarchy import (AuxGroup, Hyperplane, PublicKey, SecretKey,
                        SystemParams, require_key_pair)
from .revocation import RevocationList, is_member_revoked, rl_hash

CHALLENGE_TAG = b"HRPKS-v1/chal"
GAMMA_TAG = b"HRPKS-v1/gamma"
MAX_COLLAPSE_ATTEMPTS = 64
# Window width of `_aux_product`, by measurement (min of 60 interleaved
# runs, Python 3.11, 2-vCPU VM): the aux products of one verify took 3.6,
# 3.4 and 3.3 ms at w = 4, 5, 6 for q = 2^127 - 1, r = 8 and 14 revoked
# sets, and 0.15, 0.16 and 0.20 ms for the 32-bit toy q, r = 2 and 3 sets.
_AUX_WINDOW = 5


@dataclass(frozen=True)
class NonzeroProof:
    """Per revoked constraint set: the collapsed commitment D and the
    response pair proving its committed value has an inverse."""

    gamma_seed_index: int
    d: int
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

    @staticmethod
    def accept() -> "VerifyResult":
        return VerifyResult(True)

    @staticmethod
    def reject(reason: str) -> "VerifyResult":
        return VerifyResult(False, reason)


PK_REVOKED = "PK_REVOKED"
RL_MISMATCH = "RL_MISMATCH"
RANGE = "RANGE"
MALFORMED = "MALFORMED"
BAD_CHALLENGE = "BAD_CHALLENGE"


def _aux_table(aux: AuxGroup, base: int):
    """base^0, base^1, ..., base^(2^w - 1) mod rho: one base's window table
    for `_aux_product`."""
    table = [1, base % aux.rho]
    for _ in range(2, 1 << _AUX_WINDOW):
        table.append(table[-1] * base % aux.rho)
    return table


def _aux_product(aux: AuxGroup, terms) -> int:
    """prod base^e mod rho over (window table of base, e) terms.

    One Straus chain: w squarings per window, shared by every term, and one
    table multiply per nonzero digit. Each e is reduced mod q first, so it
    may be negative or exceed q; that is valid only because every base has
    order dividing q. g and h do (`AuxGroup` checks them), the C_i do once
    `_structural_ok` has checked C_i^q = 1, which verify runs before any
    product, and each D_j is built from those. On any other base the result
    is wrong.
    """
    q, rho = aux.q, aux.rho
    terms = [(table, e % q) for table, e in terms]
    terms = [(table, e) for table, e in terms if e]
    if not terms:
        return 1
    top = max(e.bit_length() for _, e in terms)
    mask = (1 << _AUX_WINDOW) - 1
    acc = 1
    for shift in range((top - 1) // _AUX_WINDOW * _AUX_WINDOW, -1,
                       -_AUX_WINDOW):
        if acc != 1:  # no squarings before the first nonzero digit
            for _ in range(_AUX_WINDOW):
                acc = acc * acc % rho
        for table, e in terms:
            digit = (e >> shift) & mask
            if digit:
                acc = acc * table[digit] % rho
    return acc


def _commit(params: SystemParams, g_table, h_table, value: int,
            randomness: int) -> int:
    if not 0 <= value < params.q or not 0 <= randomness < params.q:
        raise ValueError("commitment inputs must lie in [0, q)")
    return _aux_product(params.aux, ((g_table, value), (h_table, randomness)))


def pedersen_commit(params: SystemParams, value: int, randomness: int) -> int:
    """g^value * h^randomness in the auxiliary group."""
    aux = params.aux
    return _commit(params, _aux_table(aux, aux.g), _aux_table(aux, aux.h),
                   value, randomness)


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


def _pk_parts(pk: PublicKey):
    return [pk.point, pk.member_id.encode(), pk.dept.encode()]


def _challenge(params: SystemParams, pk: PublicKey, rlh: bytes, retry: int,
               big_r: ModPoint, commitments, announcements, ds, bs,
               message: bytes) -> int:
    parts = [params.digest(), _pk_parts(pk), rlh, retry, big_r,
             list(commitments), list(announcements), list(ds), list(bs),
             message]
    return hash_to_challenge(CHALLENGE_TAG, parts, params.l_c)


def _collapsed_commitment(aux: AuxGroup, g_table, c_tables,
                          collapsed: Hyperplane) -> int:
    """D = g^a0 * prod C_i^a_i for the collapsed coefficients; equals
    g^f(x) h^tau when each C_i commits to x_i."""
    return _aux_product(aux, [(g_table, collapsed.a0),
                              *zip(c_tables, collapsed.linear)])


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
    big_r = params.gens_msm(ks)

    rlh = rl_hash(rl)
    commitments: list = []
    announcements: list = []
    ts: list = []
    us: list = []
    retry = 0
    ds, bs = [], []
    ws, ubars, kws, kus = [], [], [], []
    if rl.groups:
        g_table, h_table = _aux_table(aux, aux.g), _aux_table(aux, aux.h)
        for xi, ki in zip(sk.x, ks):
            ti = rng.randrange(q)
            ui = rng.randrange(q)
            ts.append(ti)
            us.append(ui)
            commitments.append(_commit(params, g_table, h_table, xi, ti))
            announcements.append(
                _aux_product(aux, ((g_table, ki), (h_table, ui))))
        c_tables = [_aux_table(aux, c) for c in commitments]

        while True:
            if retry >= MAX_COLLAPSE_ATTEMPTS:
                raise RetryExhausted(
                    f"collapse evaluated to zero {MAX_COLLAPSE_ATTEMPTS} "
                    "times; check the RNG and the size of q")
            vs = []
            collapsed_list = []
            for j, entry in enumerate(rl.groups):
                gammas = _derive_gammas(params, rlh, j,
                                        len(entry.constraints), retry)
                collapsed = collapse_constraints(entry.constraints, gammas, q)
                collapsed_list.append(collapsed)
                vs.append(collapsed.evaluate(sk.x, q))
            if all(v != 0 for v in vs):
                break
            retry += 1

        for collapsed, v in zip(collapsed_list, vs):
            tau = sum(a * t for a, t in zip(collapsed.linear, ts)) % q
            d = _collapsed_commitment(aux, g_table, c_tables, collapsed)
            w = pow(v, -1, q)
            ubar = -tau * w % q
            kw = rng.randrange(q)
            ku = rng.randrange(q)
            b = _aux_product(aux, ((_aux_table(aux, d), kw), (h_table, ku)))
            ds.append(d)
            bs.append(b)
            ws.append(w)
            ubars.append(ubar)
            kws.append(kw)
            kus.append(ku)

    c = _challenge(params, pk, rlh, retry, big_r, commitments, announcements,
                   ds, bs, message)

    s = tuple(k + c * x for k, x in zip(ks, sk.x))
    st = tuple((u + c * t) % q for u, t in zip(us, ts))
    proofs = tuple(
        NonzeroProof(gamma_seed_index=retry, d=d,
                     sw=(kw + c * w) % q, su=(ku + c * ubar) % q)
        for d, w, ubar, kw, ku in zip(ds, ws, ubars, kws, kus))
    return Signature(challenge=c, s=s, commitments=tuple(commitments),
                     commitment_responses=st, nonzero_proofs=proofs,
                     retry=retry, rl_version=rl.version)


def _structural_ok(params: SystemParams, rl: RevocationList,
                   sig: Signature) -> bool:
    q, aux = params.q, params.aux
    if not isinstance(sig.retry, int) or sig.retry < 0:
        return False
    if not 0 <= sig.challenge < (1 << params.l_c):
        return False
    if len(sig.s) != params.r:
        return False
    if rl.groups:
        if len(sig.commitments) != params.r:
            return False
        if len(sig.commitment_responses) != params.r:
            return False
        if len(sig.nonzero_proofs) != len(rl.groups):
            return False
        for c in sig.commitments:
            if not 1 <= c < aux.rho or pow(c, q, aux.rho) != 1:
                return False
        if any(not 0 <= v < q for v in sig.commitment_responses):
            return False
        for proof in sig.nonzero_proofs:
            if proof.gamma_seed_index != sig.retry:
                return False
            if not 1 <= proof.d < aux.rho:
                return False
            if not 0 <= proof.sw < q or not 0 <= proof.su < q:
                return False
    else:
        if sig.commitments or sig.commitment_responses or sig.nonzero_proofs:
            return False
    return True


def verify(params: SystemParams, pk: PublicKey, rl: RevocationList,
           message: bytes, sig: Signature) -> VerifyResult:
    """Total verification: every failure is a Reject with a reason, never
    an exception."""
    q, aux, curve = params.q, params.aux, params.curve
    if is_member_revoked(rl, pk):
        return VerifyResult.reject(PK_REVOKED)
    if sig.rl_version != rl.version:
        return VerifyResult.reject(RL_MISMATCH)
    if not on_curve_fp(curve, pk.point):
        return VerifyResult.reject(MALFORMED)
    if any(not isinstance(v, int) or v < 0 or v >= (1 << params.mask_bits)
           for v in sig.s):
        return VerifyResult.reject(RANGE)
    if not _structural_ok(params, rl, sig):
        return VerifyResult.reject(MALFORMED)

    c = sig.challenge
    big_r = msm(curve, sig.s + (-c,), params.gens + (pk.point,),
                fixed=params.r, fixed_bits=params.mask_bits)

    rlh = rl_hash(rl)
    announcements = []
    ds, bs = [], []
    if rl.groups:
        # _structural_ok has put every C_i in the order-q subgroup, as
        # _aux_product requires of its bases.
        g_table, h_table = _aux_table(aux, aux.g), _aux_table(aux, aux.h)
        c_tables = [_aux_table(aux, c_i) for c_i in sig.commitments]
        for s_i, st_i, c_table in zip(sig.s, sig.commitment_responses,
                                      c_tables):
            announcements.append(_aux_product(
                aux, ((g_table, s_i), (h_table, st_i), (c_table, -c))))
        for j, (entry, proof) in enumerate(zip(rl.groups, sig.nonzero_proofs)):
            if any(len(hp.coeffs) != params.r + 1
                   for hp in entry.constraints):
                return VerifyResult.reject(MALFORMED)
            gammas = _derive_gammas(params, rlh, j, len(entry.constraints),
                                    sig.retry)
            try:
                collapsed = collapse_constraints(entry.constraints, gammas, q)
            except (InvariantError, ValueError):
                return VerifyResult.reject(MALFORMED)
            d = _collapsed_commitment(aux, g_table, c_tables, collapsed)
            if d != proof.d:
                return VerifyResult.reject(MALFORMED)
            b = _aux_product(aux, ((_aux_table(aux, d), proof.sw),
                                   (h_table, proof.su), (g_table, -c)))
            ds.append(d)
            bs.append(b)

    expected = _challenge(params, pk, rlh, sig.retry, big_r, sig.commitments,
                          announcements, ds, bs, message)
    if expected != c:
        return VerifyResult.reject(BAD_CHALLENGE)
    return VerifyResult.accept()
