"""Group-manager state: system setup, the department tree with its nested
affine constraints, member key generation, and GM certification of public
keys.

Department at level k <= r-1 carries k linearly independent hyperplanes
(its own plus every ancestor's); member secret keys are sampled uniformly
from the department's solution space mod q.
"""

import collections
import hashlib
import math
import warnings
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

from . import curve_fp, curve_q, modmath
from .curve_fp import (CurveFp, ModPoint, msm, neg_fp, reduce_curve,
                       reduce_point)
from .encoding import MAX_CHALLENGE_BITS, encode, hash_to_challenge
from .errors import InvariantError, ParseError

H_DERIVE_TAG = b"HRPKS-v1/h"
AUX_K_LIMIT = 10 ** 6
DEFAULT_STAT_GAP_BITS = 64
MAX_STAT_GAP_BITS = 4 * DEFAULT_STAT_GAP_BITS


@dataclass(frozen=True)
class AuxGroup:
    """Order-q subgroup of (Z/rho)*: the commitment group.

    h is g raised to a hash-derived exponent, so log_g(h) is public:
    anyone can recompute it, and the nonzero proof of `sigma` does not
    bind until h is derived with no known logarithm (ROADMAP item 2). q
    must be prime; `setup` and the params loader check it.
    """

    rho: int
    q: int
    g: int
    h: int

    def __post_init__(self):
        if (self.rho - 1) % self.q != 0:
            raise InvariantError("q does not divide rho - 1")
        for name, el in (("g", self.g), ("h", self.h)):
            if not 1 < el < self.rho:
                raise InvariantError(f"aux generator {name} out of range")
            if pow(el, self.q, self.rho) != 1:
                raise InvariantError(f"aux generator {name} not of order q")
        if not self._rho_is_prime():
            raise InvariantError("aux modulus rho is not prime")

    def _rho_is_prime(self) -> bool:
        """When (q + 1)^2 > rho, as for every rho `setup` finds, one gcd
        decides (Pocklington's criterion): if gcd(g - 1, rho) = 1, g has
        order q modulo every prime factor l of rho, so l >= q + 1 >
        sqrt(rho), which no composite rho allows. Otherwise Miller-Rabin."""
        if (self.q + 1) ** 2 > self.rho:
            return math.gcd(self.g - 1, self.rho) == 1
        return modmath.is_probable_prime(self.rho)


@dataclass(frozen=True)
class Hyperplane:
    """Affine constraint a0 + a1*x1 + ... + ar*xr = 0 (mod q).

    coeffs is (a0, a1, ..., ar); the linear part must not vanish.
    """

    coeffs: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if any(type(c) is not int for c in self.coeffs):
            # bools and floats too: the group arithmetic takes ints only
            raise InvariantError("hyperplane coefficients must be ints")
        if len(self.coeffs) < 2:
            raise InvariantError("hyperplane needs a constant and >=1 coefficient")
        if all(c == 0 for c in self.coeffs[1:]):
            raise InvariantError("hyperplane has an all-zero linear part")

    @property
    def a0(self) -> int:
        return self.coeffs[0]

    @property
    def linear(self) -> Tuple[int, ...]:
        return self.coeffs[1:]

    def evaluate(self, x: Sequence[int], q: int) -> int:
        if len(x) != len(self.coeffs) - 1:
            raise ValueError("dimension mismatch")
        return (self.a0 + sum(a * v for a, v in zip(self.linear, x))) % q


@dataclass
class DeptNode:
    """Node of the department tree. The root has level 0 and no constraints;
    a level-k node carries k constraints (its own last)."""

    path: str
    constraints: Tuple[Hyperplane, ...] = ()
    # name -> child in attach order: `attach` is the only writer, and finds
    # a taken name without scanning the siblings
    _children: Dict[str, "DeptNode"] = field(default_factory=dict, init=False)

    @property
    def level(self) -> int:
        return len(self.constraints)

    @property
    def children(self) -> Tuple["DeptNode", ...]:
        return tuple(self._children.values())

    def child(self, name: str) -> Optional["DeptNode"]:
        return self._children.get(name)

    def attach(self, name: str, hyperplane: Hyperplane) -> "DeptNode":
        """Append and return the child `name`, with `hyperplane` stacked on
        this node's constraints: the one place a child department is made,
        by `add_department` and the tree loader alike. The name must be
        nonempty, slash-free and not taken here, so `find_dept` reaches
        every node."""
        if not name or "/" in name:
            raise ValueError(f"department name {name!r} is empty or holds "
                             "a slash")
        if name in self._children:
            raise ValueError(f"duplicate child names: {name!r} already "
                             f"exists under {self.path or '/'}")
        node = self._children[name] = DeptNode(
            path=f"{self.path}/{name}",
            constraints=self.constraints + (hyperplane,))
        return node


def new_root() -> DeptNode:
    return DeptNode(path="")


def find_dept(root: DeptNode, path: str) -> DeptNode:
    """Look up a node by path like '/financial/payroll'."""
    if path in ("", "/"):
        return root
    node = root
    for name in path.strip("/").split("/"):
        node = node.child(name)
        if node is None:
            raise ValueError(f"no department at path {path!r}")
    return node


def walk(root: DeptNode):
    yield root
    for c in root.children:
        yield from walk(c)


@dataclass(frozen=True)
class SecretKey:
    x: Tuple[int, ...]
    member_id: str
    dept: str

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))

    def __repr__(self):  # keep key material out of logs
        return f"SecretKey(member_id={self.member_id!r}, dept={self.dept!r})"


@dataclass(frozen=True)
class PublicKey:
    point: ModPoint
    member_id: str
    dept: str
    cert: Optional[bytes] = None


def _key_parts(pk: PublicKey) -> list:
    """The identity a key is signed under: (point, member id, dept path)."""
    return [pk.point, pk.member_id.encode(), pk.dept.encode()]


@dataclass(frozen=True)
class SystemParams:
    """Public parameters. CurveFp checks that p is prime; `setup` and the
    params loader check q, each once."""

    curve_id: str
    curve: CurveFp
    r: int
    p: int
    q: int
    gens: Tuple[ModPoint, ...]
    aux: AuxGroup
    l_c: int
    l_s: int
    gm_pub: PublicKey

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(self.gens))
        if self.p != self.curve.p:
            raise InvariantError("p disagrees with the reduced curve")
        if len(self.gens) != self.r or self.r < 1:
            raise InvariantError("generator count must equal r >= 1")
        if len(set(self.gens)) != self.r:
            raise InvariantError("generators must be pairwise distinct")
        for g in self.gens:
            if g.is_infinity:
                raise InvariantError("a generator reduced to infinity")
            if not curve_fp.on_curve_fp(self.curve, g):
                raise InvariantError(f"generator {g} not on the curve")
        # for q not a power of two (an odd prime, here) 2^l_c < q is
        # l_c < bitlen(q); comparing bit lengths shifts no untrusted count
        if not 8 <= self.l_c < self.q.bit_length():
            raise InvariantError("need 8 <= l_c and 2^l_c < q")
        if self.q.bit_length() - 1 > MAX_CHALLENGE_BITS:
            # collapse gammas are hashed to bitlen(q) - 1 bits
            raise InvariantError(f"q must be below 2^{MAX_CHALLENGE_BITS + 1}")
        if not 1 <= self.l_s <= MAX_STAT_GAP_BITS:
            # sign and verify build 2^mask_bits bounds and comb tables
            raise InvariantError(f"need 1 <= l_s <= {MAX_STAT_GAP_BITS}")
        if self.aux.q != self.q:
            raise InvariantError("aux group order disagrees with q")
        if not curve_fp.on_curve_fp(self.curve, self.gm_pub.point):
            raise InvariantError("GM public point not on the curve")

    def digest(self) -> bytes:
        """Stable 32-byte identifier binding every public parameter,
        computed once per params object."""
        return self._digest

    @cached_property
    def _digest(self) -> bytes:
        c = self.curve
        parts = [
            self.curve_id.encode(), self.p,
            c.a1, c.a2, c.a3, c.a4, c.a6,
            self.q, self.r, list(self.gens),
            self.aux.rho, self.aux.g, self.aux.h,
            self.l_c, self.l_s, *_key_parts(self.gm_pub),
        ]
        return hashlib.sha256(b"HRPKS-v1/params" + encode(parts)).digest()

    @property
    def mask_bits(self) -> int:
        return self.q.bit_length() + self.l_c + self.l_s

    def gens_msm(self, scalars: Sequence[int], extra=()) -> ModPoint:
        """sum scalars[i] * gens[i] plus n * P for each (n, P) in `extra`,
        on the system's one cached comb table over the generators, for
        scalars in [0, 2^mask_bits). Each extra term, a member verify's
        -c * pk or a certificate check's -c * GM, runs as (-n) * (-P) on a
        cached comb of -P alone in the table's d columns (`msm`'s
        `keyed_bits` = l_c), which takes every nonzero challenge, or else
        as a NAF row. The sum is the same."""
        return msm(self.curve, [*scalars, *(-n for n, _ in extra)],
                   self.gens + tuple(neg_fp(self.curve, P) for _, P in extra),
                   fixed=self.r, fixed_bits=self.mask_bits,
                   keyed_bits=self.l_c)


# SecretKey -> (curve, gens, point) it was last found to represent, by
# `join` or `require_key_pair`. Weak keys: an entry lives only as long as
# the caller keeps the key.
_KEY_MATCHES = weakref.WeakKeyDictionary()


def require_key_pair(params: SystemParams, sk: SecretKey, pk: PublicKey):
    """Raise ValueError unless sk.x represents pk.point over params.gens.
    A match is remembered per secret key, so repeated signs by one key pay
    one MSM, and keys fresh from `join` pay none."""
    match = (params.curve, params.gens, pk.point)
    if _KEY_MATCHES.get(sk) == match:
        return
    if params.gens_msm(sk.x) != pk.point:
        raise ValueError("secret key does not match the public key")
    _KEY_MATCHES[sk] = match


def _build_aux_group(q: int) -> AuxGroup:
    k = 2
    rho = None
    while k <= AUX_K_LIMIT:
        cand = k * q + 1
        if modmath.is_probable_prime(cand):
            rho = cand
            break
        k += 1
    if rho is None:
        raise ValueError(f"no prime rho = k*q + 1 with k <= {AUX_K_LIMIT}")
    z = 2
    while True:
        g = pow(z, (rho - 1) // q, rho)
        if g != 1:
            break
        z += 1
    e = hash_to_challenge(H_DERIVE_TAG, [rho, g], q.bit_length() - 1) + 2
    h = pow(g, e, rho)
    if h == 1:
        raise InvariantError("degenerate commitment base h = 1; pick another q")
    return AuxGroup(rho=rho, q=q, g=g, h=h)


def setup(curve_id: str, p: int, q: int, rng, l_c: Optional[int] = None,
          l_s: int = DEFAULT_STAT_GAP_BITS):
    """Build system parameters and the GM keypair.

    Reduces the catalog curve and all of its generators mod p, so r is
    the number of generators the catalog lists (2 on toy17, 8 on
    mestre8) and a department tree is at most r - 1 levels deep. Then
    constructs the auxiliary commitment group for q and samples the
    (unconstrained) GM secret vector.

    Returns (SystemParams, gm_secret_key).
    """
    curve = curve_q.catalog(curve_id)
    if not curve.generators:
        raise ValueError(f"curve {curve_id!r} lists no generators")
    try:
        reduced = reduce_curve(curve, p)  # CurveFp checks that p is prime
    except InvariantError as e:
        # bad reduction at the caller's p: a usage error, as below
        raise ValueError(str(e)) from e
    if not modmath.is_probable_prime(q):
        raise ValueError(f"q = {q} is not prime")
    gens = tuple(reduce_point(reduced, g) for g in curve.generators)

    if l_c is None:
        l_c = min(128, q.bit_length() - 1)

    aux = _build_aux_group(q)
    r = len(gens)
    gm_x = tuple(rng.randrange(q) for _ in range(r))
    gm_point = msm(reduced, gm_x, gens)
    gm_pub = PublicKey(point=gm_point, member_id="gm", dept="")
    try:
        params = SystemParams(curve_id=curve_id, curve=reduced, r=r, p=p,
                              q=q, gens=gens, aux=aux, l_c=l_c, l_s=l_s,
                              gm_pub=gm_pub)
    except InvariantError as e:
        # built from the caller's arguments, so a bad one is a usage error
        raise ValueError(str(e)) from e

    # Each generator order must exceed 2^mask_bits: a member who adds an
    # order n to key coordinate i keeps the certified point, lies off every
    # revoked plane whose a_i n is nonzero mod q, and keeps the responses
    # below 2^mask_bits once c * n does. No order is computed here (each
    # is a point-order search); the Hasse floor, the least #E can be,
    # stands in, and a generator whose order is a proper divisor of #E
    # passes it. The rule is necessary, not sufficient: any short relation
    # sum L_i G_i = O shifts a key the same way, short relations always
    # exist (about p^(1/r) in sup norm), and no check here can tell how
    # hard they are to find, so a quiet setup is no soundness claim.
    hasse_lo, _ = curve_fp.hasse_interval(p)
    if hasse_lo <= 1 << params.mask_bits:
        warnings.warn(
            f"the Hasse floor {hasse_lo} of the possible generator orders "
            f"is at most 2^{params.mask_bits} (mask_bits = bitlen(q) + l_c "
            "+ l_s), so key coordinates may wrap around generator orders "
            "and a member of a revoked department can be accepted. "
            "Generator orders above 2^mask_bits are necessary, not "
            "sufficient: a key shifted by a short relation among the "
            "generators is accepted too. For p above 2^64, where no order "
            "can be computed, the floor is only a necessary bound. Fine "
            "for toy reproduction only.")
    return params, SecretKey(x=gm_x, member_id="gm", dept="")


def _require_r_wide(params: SystemParams, node: DeptNode):
    """A tree is loaded without params, so a hand-edited one can stack
    hyperplanes of any width; every one must be r + 1 wide."""
    if any(len(hp.coeffs) != params.r + 1 for hp in node.constraints):
        raise ValueError(f"department {node.path or '/'} has a hyperplane "
                         f"that is not r + 1 = {params.r + 1} wide")


def add_department(params: SystemParams, parent: DeptNode, rng,
                   name: Optional[str] = None,
                   constraint: Optional[Hyperplane] = None) -> DeptNode:
    """Attach a child department one level below `parent`.

    Samples a fresh hyperplane until its linear part is independent of the
    parent's stacked constraint rows mod q, so the child's solution space
    has dimension exactly r - level >= 1. Pass `constraint` to pin the
    hyperplane instead of sampling (it must still be independent).
    """
    q, r = params.q, params.r
    _require_r_wide(params, parent)
    if parent.level >= r - 1:
        raise ValueError(
            f"depth limit: level-{parent.level} department cannot have "
            f"children when r = {r} (max level is r - 1)")
    if constraint is not None and len(constraint.coeffs) != r + 1:
        raise ValueError("constraint dimension disagrees with r")
    if name is None:
        name = f"d{len(parent.children)}"
    parent_rows = [hp.linear for hp in parent.constraints]
    while True:
        if constraint is None:
            coeffs = tuple(rng.randrange(q) for _ in range(r + 1))
        else:
            coeffs = tuple(c % q for c in constraint.coeffs)
        # a zero linear part adds no rank either
        if modmath.rank_mod(parent_rows + [coeffs[1:]], q) \
                == len(parent_rows) + 1:
            return parent.attach(name, Hyperplane(coeffs))
        if constraint is not None:
            raise ValueError("the given constraint is dependent on the "
                             "parent's constraints")


def join(params: SystemParams, gm_sk: SecretKey, dept: DeptNode,
         member_id: str, rng):
    """Generate a member keypair on the department's constraint subspace
    and certify the public key.

    Returns (SecretKey, PublicKey) with the GM certificate attached.
    """
    if dept.level < 1:
        raise ValueError("members join departments, not the root")
    _require_r_wide(params, dept)
    q = params.q
    x = tuple(modmath.solve_affine_mod(
        [hp.linear for hp in dept.constraints],
        [-hp.a0 for hp in dept.constraints], q,
        fill=lambda _j: rng.randrange(q)))
    for hp in dept.constraints:
        if hp.evaluate(x, q) != 0:
            raise InvariantError("solved key misses a constraint; "
                                 "department state is corrupt")
    point = params.gens_msm(x)
    sk = SecretKey(x=x, member_id=member_id, dept=dept.path)
    _KEY_MATCHES[sk] = (params.curve, params.gens, point)
    bare = PublicKey(point=point, member_id=member_id, dept=dept.path)
    cert = gm_certify(params, gm_sk, bare, rng)
    pk = PublicKey(point=point, member_id=member_id, dept=dept.path, cert=cert)
    return sk, pk


def _cert_message(pk: PublicKey) -> bytes:
    return encode(_key_parts(pk))


def gm_certify(params: SystemParams, gm_sk: SecretKey, pk: PublicKey,
               rng) -> bytes:
    """GM signature over (point, member id, dept path), as canonical bytes.
    Raises ValueError, through `sigma.sign`, when gm_sk does not match
    params.gm_pub."""
    from . import revocation, serial, sigma  # deferred: layered above us

    sig = sigma.sign(params, gm_sk, params.gm_pub, revocation.empty_rl(),
                     _cert_message(pk), rng)
    return serial.serialize_artifact("signature", sig).encode("utf-8")


# How many certificate verdicts `verify_cert` keeps, the least recently
# used dropped first; an entry holds a key with its certificate, about
# 1 KB at r = 8.
_CERT_CACHE_SIZE = 128
# (params digest, public key) -> verdict, least recently used first
_CERT_VERDICTS = collections.OrderedDict()


def verify_cert(params: SystemParams, pk: PublicKey) -> bool:
    """True iff pk carries a valid GM certificate for exactly its fields.

    Verdicts are kept in a bounded LRU keyed by the params digest, which
    binds every parameter the check reads, the GM key included, and by
    the frozen key itself, compared by content: point, member id, dept
    and certificate bytes. A repeated check is then a dict lookup, and a
    False is as safe to keep as a True. A check that raises keeps
    nothing."""
    key = (params.digest(), pk)
    verdict = _CERT_VERDICTS.pop(key, None)
    if verdict is None:
        verdict = _check_cert(params, pk)
    _CERT_VERDICTS[key] = verdict
    if len(_CERT_VERDICTS) > _CERT_CACHE_SIZE:
        _CERT_VERDICTS.popitem(last=False)
    return verdict


def _check_cert(params: SystemParams, pk: PublicKey) -> bool:
    from . import revocation, serial, sigma

    if not pk.cert:
        return False
    try:
        sig = serial.deserialize_artifact(pk.cert.decode("utf-8"))
    except (UnicodeDecodeError, ParseError, InvariantError):
        return False
    if not isinstance(sig, sigma.Signature):
        return False
    result = sigma._verify_proof(params, params.gm_pub, revocation.empty_rl(),
                                 _cert_message(pk), sig)
    return result.accepted
