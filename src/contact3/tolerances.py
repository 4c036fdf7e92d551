"""Shared numeric tolerances, and the one rule by which every gate reads them.

A gate compares its quantity with its tolerance times the scale of the
data that enters it, with no floor.  The scale is max |c| for a quantity
built from structure constants, a bracket or normal-form coefficients,
and 1 for a dimensionless one: a unit vector, an angle, a ratio such as
the shear q.  So c -> lambda c moves each quantity and its bound together.

``IDENTITY_RTOL`` holds identities that are exact in real arithmetic;
``PREDICATE_TOL`` the predicates and admissibility gates (geodesic,
ker d_eta, contact, normal, isomorphic, unimodular, the family and frame
checks); ``NORMAL_FORM_TOL`` a normal form against the raw constants in
its frame, which the branch forms meet exactly only on the case lines.
Each check is one function, which the scalar classification path and the
batched atlas pass (``_batched``) both call, over a leading axis or row
by row; ``_batched`` takes no name from here.  No public function takes a
tolerance: each gate reads its constant here when it runs.
"""

IDENTITY_RTOL = 1e-12
PREDICATE_TOL = 1e-9
NORMAL_FORM_TOL = 1e-10
