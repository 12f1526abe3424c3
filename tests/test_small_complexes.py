"""Every small complex, up to relabelling: volume rigidity against
membership of the characteristic face, and tightness against rigidity."""

import pytest

from helpers import isomorphism_classes
from volrig import build_complex, is_volume_rigid
from volrig.shifting import characteristic_membership
from volrig.sparsity import SparsityParams, is_tight

# (n, d): (classes, rigid).  The class counts are OEIS A000665 (3-uniform
# hypergraphs on 4 and 5 unlabelled nodes) less the empty complex, and
# for d = n - 1 one class per facet count 1..n.
CENSUS = {(4, 3): (4, 2), (5, 3): (33, 19), (5, 4): (5, 2), (6, 5): (6, 2)}


@pytest.mark.parametrize("n, d", sorted(CENSUS))
def test_rigid_iff_characteristic_member_on_every_small_complex(n, d):
    # The paper's equivalence, class by class.  A disagreement, or a
    # tight complex that is flexible, is a finding about the paper or the
    # code, to be recorded, never filtered out.
    classes = isomorphism_classes(n, d)
    params = SparsityParams.volume_regime(d)
    rigid, disagree, tight_flexible = 0, [], []
    for facets in classes:
        K = build_complex(n, facets)
        r = is_volume_rigid(K)
        rigid += r
        if r != characteristic_membership(K).member:
            disagree.append(facets)
        if not r and is_tight(K, params):
            tight_flexible.append(facets)
    assert (len(classes), rigid) == CENSUS[n, d]
    assert disagree == []
    assert tight_flexible == []
