"""Hierarchical-revocation public-key signatures over elliptic curves of
high rank.

The rank-r curve supplies r independent generators over Q; reduced mod a
prime p they span the group where keys live. Department membership is an
affine subspace mod q, signatures are Fiat-Shamir proofs of the key's
representation, and revoking a department forces later signatures to carry
a proof that the key misses its hyperplanes.

Research artifact: arithmetic is not constant-time and parameters are
desk-scale. Do not use for anything that matters.
"""

from .assumption_lab import (OrderReport, RelationReport, order_report,
                             relation_search)
from .curve_fp import (INF, CurveFp, ModPoint, msm, on_curve_fp, point_order,
                       reduce_curve, reduce_point, scalar_mul_fp)
from .curve_q import CurveQ, RationalPoint, catalog, catalog_ids, scalar_mul_q
from .encoding import encode, hash_to_challenge
from .errors import InvariantError, ParseError, RetryExhausted, SignerRevoked
from .hierarchy import (AuxGroup, DeptNode, Hyperplane, PublicKey, SecretKey,
                        SystemParams, add_department, find_dept, gm_certify,
                        join, new_root, setup, verify_cert)
from .revocation import (ConstraintSet, RevocationList, RevokedMember,
                         coalesce, empty_rl, is_member_revoked, revoke_group,
                         revoke_member, rl_hash)
from .serial import deserialize_artifact, load_artifact, save_artifact, \
    serialize_artifact
from .sigma import (NonzeroProof, Signature, VerifyResult, collapse_constraints,
                    sign, verify)

__version__ = "0.1.0"
