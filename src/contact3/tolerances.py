"""Shared numeric tolerances.

Predicates (geodesic, ker d_eta, contact, normal, isomorphic) decide at
``PREDICATE_TOL``.  Exact algebraic identities are held to
``IDENTITY_RTOL`` relative to the size of the data entering them.  The
other constants are the gates of single checks, each with the scaling
noted beside it.  Each check is one function, which the scalar
classification path and the batched atlas pass (``_batched``) both
call, over a leading axis or row by row; ``_batched`` takes no name
from here.  No public function takes a tolerance: each gate reads its
constant here when it runs, so a gate changes in one place.
"""

# residual allowed on identities that hold exactly in real arithmetic
IDENTITY_RTOL = 1e-12
PREDICATE_TOL = 1e-9

UNIMODULAR_TOL = 1e-9  # |trace ad(e_i)|, against max(scale, 1)
FAMILY_A_TOL = 1e-9  # |alpha gamma + beta delta|, against max(1, |params|)^2
INPLANE_TOL = 1e-9  # the in-plane geodesic equation, against max(1, scale)
FRAME_TOL = 1e-9  # |B^T g B - I| of an adapted frame
NORMAL_FORM_TOL = 1e-10  # normal form against the raw constants, times max(1, scale)
SIGN_TOL = 1e-9  # smallest component that fixes a canonical sign
NULL_AD_TOL = 1e-12  # ad(xi) on ker eta counts as zero, times max(1, scale)
ROOT_MERGE_TOL = 1e-12  # in-plane roots this close (radians) are one
