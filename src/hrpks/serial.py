"""Canonical text serialization for every artifact the tool reads or writes.

Documents are JSON with sorted keys and no insignificant whitespace, every
integer rendered as a decimal string (no host numeric type ever touches a
value), and explicit "kind"/"version" fields. Equal values serialize to
identical bytes, which is what revocation-list hashing and certificates
sign.

Kinds: params, keypair, cert, rl, signature, tree, report.
File extensions by convention: .params .key .pub/.cert .rl .sig .tree .report
"""

import json
from typing import Optional

from .assumption_lab import OrderReport, RelationReport
from .curve_fp import PRIMALITY_ROUNDS, CurveFp, ModPoint, on_curve_fp
from .errors import InvariantError, ParseError
from .hierarchy import (AuxGroup, DeptNode, Hyperplane, PublicKey, SecretKey,
                        SystemParams, new_root)
from .modmath import is_probable_prime
from .revocation import ConstraintSet, RevocationList, RevokedMember
from .sigma import NonzeroProof, Signature

FORMAT_VERSION = "1"

EXTENSIONS = {
    "params": ".params",
    "keypair": ".key",
    "cert": ".pub",
    "rl": ".rl",
    "signature": ".sig",
    "tree": ".tree",
    "report": ".report",
}


def _s(v: int) -> str:
    return str(int(v))


def _parse_int(v) -> int:
    if not isinstance(v, str):
        raise ParseError(f"integer fields must be decimal strings, got {v!r}")
    try:
        return int(v, 10)
    except ValueError:
        raise ParseError(f"bad decimal string {v!r}") from None


def _point_doc(pt: ModPoint):
    if pt.is_infinity:
        return "inf"
    return [_s(pt.x), _s(pt.y)]


def _parse_point(doc) -> ModPoint:
    if doc == "inf":
        return ModPoint.infinity()
    if not isinstance(doc, list) or len(doc) != 2:
        raise ParseError(f"bad point document {doc!r}")
    return ModPoint(_parse_int(doc[0]), _parse_int(doc[1]))


def _hyperplane_doc(hp: Hyperplane):
    return [_s(c) for c in hp.coeffs]


def _parse_hyperplane(doc) -> Hyperplane:
    if not isinstance(doc, list):
        raise ParseError("hyperplane must be a coefficient list")
    return Hyperplane(tuple(_parse_int(c) for c in doc))


def _pk_doc(pk: PublicKey):
    return {
        "point": _point_doc(pk.point),
        "member_id": pk.member_id,
        "dept": pk.dept,
        "cert": pk.cert.hex() if pk.cert else "",
    }


def _parse_pk(doc) -> PublicKey:
    cert = None
    if doc.get("cert"):
        try:
            cert = bytes.fromhex(doc["cert"])
        except ValueError:
            raise ParseError("public key cert is not hex") from None
    return PublicKey(point=_parse_point(doc["point"]),
                     member_id=doc["member_id"], dept=doc["dept"], cert=cert)


def _params_doc(params: SystemParams):
    c = params.curve
    return {
        "kind": "params",
        "version": FORMAT_VERSION,
        "curve_id": params.curve_id,
        "p": _s(params.p),
        "curve": {"a1": _s(c.a1), "a2": _s(c.a2), "a3": _s(c.a3),
                  "a4": _s(c.a4), "a6": _s(c.a6)},
        "q": _s(params.q),
        "r": _s(params.r),
        "gens": [_point_doc(g) for g in params.gens],
        "aux": {"rho": _s(params.aux.rho), "g": _s(params.aux.g),
                "h": _s(params.aux.h)},
        "l_c": _s(params.l_c),
        "l_s": _s(params.l_s),
        "gm_pub": _pk_doc(params.gm_pub),
    }


def _parse_params(doc) -> SystemParams:
    p = _parse_int(doc["p"])
    cd = doc["curve"]
    curve = CurveFp(p, _parse_int(cd["a1"]), _parse_int(cd["a2"]),
                    _parse_int(cd["a3"]), _parse_int(cd["a4"]),
                    _parse_int(cd["a6"]), source=doc["curve_id"])
    aux = AuxGroup(rho=_parse_int(doc["aux"]["rho"]),
                   q=_parse_int(doc["q"]),
                   g=_parse_int(doc["aux"]["g"]),
                   h=_parse_int(doc["aux"]["h"]))
    params = SystemParams(
        curve_id=doc["curve_id"], curve=curve, r=_parse_int(doc["r"]),
        p=p, q=_parse_int(doc["q"]),
        gens=tuple(_parse_point(g) for g in doc["gens"]),
        aux=aux, l_c=_parse_int(doc["l_c"]), l_s=_parse_int(doc["l_s"]),
        gm_pub=_parse_pk(doc["gm_pub"]))
    # `setup` checks q for the parameters it builds; CurveFp checks p
    if not is_probable_prime(params.q, PRIMALITY_ROUNDS):
        raise InvariantError("q is not prime")
    return params


def _keypair_doc(value):
    sk, pk = value
    return {
        "kind": "keypair",
        "version": FORMAT_VERSION,
        "sk": {"x": [_s(v) for v in sk.x], "member_id": sk.member_id,
               "dept": sk.dept},
        "pk": _pk_doc(pk),
    }


def _parse_keypair(doc):
    skd = doc["sk"]
    sk = SecretKey(x=tuple(_parse_int(v) for v in skd["x"]),
                   member_id=skd["member_id"], dept=skd["dept"])
    return sk, _parse_pk(doc["pk"])


def _cert_doc(pk: PublicKey):
    doc = _pk_doc(pk)
    doc["kind"] = "cert"
    doc["version"] = FORMAT_VERSION
    return doc


def _rl_doc(rl: RevocationList):
    return {
        "kind": "rl",
        "version": FORMAT_VERSION,
        "rl_version": _s(rl.version),
        "members": [{"point": _point_doc(m.point), "member_id": m.member_id}
                    for m in rl.members],
        "groups": [{"path": g.path,
                    "constraints": [_hyperplane_doc(hp)
                                    for hp in g.constraints]}
                   for g in rl.groups],
    }


def _parse_rl(doc) -> RevocationList:
    members = tuple(
        RevokedMember(point=_parse_point(m["point"]),
                      member_id=m["member_id"])
        for m in doc["members"])
    groups = tuple(
        ConstraintSet(path=g["path"],
                      constraints=tuple(_parse_hyperplane(hp)
                                        for hp in g["constraints"]))
        for g in doc["groups"])
    return RevocationList(members=members, groups=groups,
                          version=_parse_int(doc["rl_version"]))


def _signature_doc(sig: Signature):
    return {
        "kind": "signature",
        "version": FORMAT_VERSION,
        "c": _s(sig.challenge),
        "s": [_s(v) for v in sig.s],
        "commitments": [_s(v) for v in sig.commitments],
        "commitment_responses": [_s(v) for v in sig.commitment_responses],
        "nonzero_proofs": [{"gamma_seed_index": _s(p.gamma_seed_index),
                            "d": _s(p.d), "sw": _s(p.sw), "su": _s(p.su)}
                           for p in sig.nonzero_proofs],
        "retry": _s(sig.retry),
        "rl_version": _s(sig.rl_version),
    }


def _parse_signature(doc) -> Signature:
    proofs = tuple(
        NonzeroProof(gamma_seed_index=_parse_int(p["gamma_seed_index"]),
                     d=_parse_int(p["d"]), sw=_parse_int(p["sw"]),
                     su=_parse_int(p["su"]))
        for p in doc["nonzero_proofs"])
    return Signature(
        challenge=_parse_int(doc["c"]),
        s=tuple(_parse_int(v) for v in doc["s"]),
        commitments=tuple(_parse_int(v) for v in doc["commitments"]),
        commitment_responses=tuple(_parse_int(v)
                                   for v in doc["commitment_responses"]),
        nonzero_proofs=proofs, retry=_parse_int(doc["retry"]),
        rl_version=_parse_int(doc["rl_version"]))


def _tree_node_doc(node: DeptNode):
    doc = {"name": node.path.rsplit("/", 1)[-1] if node.path else "",
           "children": [_tree_node_doc(c)
                        for c in sorted(node.children,
                                        key=lambda n: n.path)]}
    if node.level >= 1:
        doc["hyperplane"] = _hyperplane_doc(node.constraints[-1])
    return doc


def _tree_doc(root: DeptNode):
    if root.level != 0:
        raise ValueError("tree serialization starts at the root")
    return {"kind": "tree", "version": FORMAT_VERSION,
            "root": _tree_node_doc(root)}


def _parse_tree_node(doc, parent: Optional[DeptNode]) -> DeptNode:
    if parent is None:
        node = new_root()
    else:
        hp = _parse_hyperplane(doc["hyperplane"])
        node = DeptNode(path=f"{parent.path}/{doc['name']}",
                        level=parent.level + 1,
                        constraints=parent.constraints + (hp,))
    names = [child["name"] for child in doc.get("children", [])]
    if len(set(names)) != len(names):
        raise InvariantError(f"duplicate child names under {node.path or '/'}")
    for child in doc.get("children", []):
        node.children.append(_parse_tree_node(child, node))
    return node


def _report_doc(report):
    if isinstance(report, RelationReport):
        return {
            "kind": "report", "version": FORMAT_VERSION,
            "report_type": "relations",
            "params_digest": report.params_digest,
            "method": report.method,
            "bound": _s(report.bound),
            "relations": [{"x": [_s(v) for v in vec],
                           "trivial": "1" if triv else "0"}
                          for vec, triv in zip(report.relations,
                                               report.trivial_flags)],
            "orders": [_s(v) for v in report.orders],
            "q_over_min_order": repr(report.q_over_min_order),
            "wall_time": repr(report.wall_time),
        }
    if isinstance(report, OrderReport):
        return {
            "kind": "report", "version": FORMAT_VERSION,
            "report_type": "orders",
            "params_digest": report.params_digest,
            "orders": [_s(v) for v in report.orders],
            "hasse_lo": _s(report.hasse_lo),
            "hasse_hi": _s(report.hasse_hi),
            "q_over_min_order": repr(report.q_over_min_order),
            "wall_time": repr(report.wall_time),
        }
    raise TypeError(f"not a report: {type(report).__name__}")


def _parse_report(doc):
    rtype = doc.get("report_type")
    if rtype == "relations":
        relations = tuple(tuple(_parse_int(v) for v in rel["x"])
                          for rel in doc["relations"])
        flags = tuple(rel["trivial"] == "1" for rel in doc["relations"])
        return RelationReport(
            params_digest=doc["params_digest"], method=doc["method"],
            bound=_parse_int(doc["bound"]), relations=relations,
            trivial_flags=flags,
            orders=tuple(_parse_int(v) for v in doc["orders"]),
            q_over_min_order=float(doc["q_over_min_order"]),
            wall_time=float(doc["wall_time"]))
    if rtype == "orders":
        return OrderReport(
            params_digest=doc["params_digest"],
            orders=tuple(_parse_int(v) for v in doc["orders"]),
            hasse_lo=_parse_int(doc["hasse_lo"]),
            hasse_hi=_parse_int(doc["hasse_hi"]),
            q_over_min_order=float(doc["q_over_min_order"]),
            wall_time=float(doc["wall_time"]))
    raise ParseError(f"unknown report_type {rtype!r}")


_SERIALIZERS = {
    "params": _params_doc,
    "keypair": _keypair_doc,
    "cert": _cert_doc,
    "rl": _rl_doc,
    "signature": _signature_doc,
    "tree": _tree_doc,
    "report": _report_doc,
}


def serialize_artifact(kind: str, value) -> str:
    """Canonical text for a value of the given kind (byte-stable)."""
    try:
        builder = _SERIALIZERS[kind]
    except KeyError:
        raise ValueError(f"unknown artifact kind {kind!r}") from None
    return json.dumps(builder(value), sort_keys=True, separators=(",", ":"))


def deserialize_artifact(text: str, curve: Optional[CurveFp] = None):
    """Parse a canonical document back into its value.

    When `curve` is supplied, any points the document carries are checked
    against the curve equation; a failed check raises InvariantError.
    Structurally broken documents raise ParseError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid artifact text: {e}") from None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("artifact documents need a 'kind' field")
    if doc.get("version") != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {doc.get('version')!r}")
    kind = doc["kind"]
    try:
        if kind == "params":
            return _parse_params(doc)
        if kind == "keypair":
            sk, pk = _parse_keypair(doc)
            _check_points(curve, [pk.point], "public key")
            return sk, pk
        if kind == "cert":
            pk = _parse_pk(doc)
            _check_points(curve, [pk.point], "public key")
            return pk
        if kind == "rl":
            rl = _parse_rl(doc)
            _check_points(curve, [m.point for m in rl.members],
                          "revoked member")
            return rl
        if kind == "signature":
            return _parse_signature(doc)
        if kind == "tree":
            return _parse_tree_node(doc["root"], None)
        if kind == "report":
            return _parse_report(doc)
    except (KeyError, IndexError, TypeError) as e:
        raise ParseError(f"malformed {kind} document: {e}") from None
    raise ParseError(f"unknown artifact kind {kind!r}")


def _check_points(curve: Optional[CurveFp], points, what: str):
    if curve is None:
        return
    for pt in points:
        if not on_curve_fp(curve, pt):
            raise InvariantError(f"{what} point {pt} fails the curve equation")


def load_artifact(path, curve: Optional[CurveFp] = None):
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize_artifact(fh.read(), curve=curve)


def save_artifact(path, kind: str, value) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_artifact(kind, value))
        fh.write("\n")
