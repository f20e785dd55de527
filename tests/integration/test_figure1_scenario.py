"""Integration: the paper's Figure 1 worked example.

Figure 1 shows a search ``w -> y`` in the input graph ``H`` traversing
``u`` and ``v``, mirrored in the group graph by ``G_w -> G_u -> G_v -> G_y``
with all-to-all links; red groups ("B") on the path derail the search.

We reconstruct the scenario on a real ring: route a search, identify its
traversed groups, and verify (a) an all-blue path delivers via secure
routing, (b) painting any traversed group red fails exactly that search,
and (c) the first red group truncates the search path (the adversary owns
everything beyond it).
"""

import numpy as np
import pytest

from repro.core.group_graph import GroupGraph
from repro.core.params import SystemParams
from repro.core.secure_routing import SecureRouter
from repro.inputgraph import make_input_graph


@pytest.fixture(scope="module")
def scenario():
    rng = np.random.default_rng(17)
    H = make_input_graph("chord", rng.random(128))
    params = SystemParams(n=128, seed=0)
    # find a search with at least 4 traversed groups (w, u, v, y of Fig. 1)
    for _ in range(200):
        w = int(rng.integers(128))
        key = float(rng.random())
        path, ok = H.route(w, key)
        if ok and len(path) >= 4:
            return H, params, w, key, path
    raise RuntimeError("no suitable 4-hop search found")


class TestFigure1:
    def test_blue_path_delivers(self, scenario):
        H, params, w, key, path = scenario
        gg = GroupGraph(H, params, red=np.zeros(H.n, dtype=bool))
        out = SecureRouter(gg).search(w, key)
        assert out.delivered
        assert np.array_equal(out.path, path)

    @pytest.mark.parametrize("position", [1, 2])
    def test_red_group_on_path_fails_search(self, scenario, position):
        H, params, w, key, path = scenario
        red = np.zeros(H.n, dtype=bool)
        red[path[position]] = True  # G_u or G_v turns red ("B" in Fig. 1)
        gg = GroupGraph(H, params, red=red)
        out = SecureRouter(gg).search(w, key)
        assert out.corrupted and not out.delivered

    def test_search_path_truncated_at_first_red(self, scenario):
        H, params, w, key, path = scenario
        red = np.zeros(H.n, dtype=bool)
        red[path[2]] = True
        gg = GroupGraph(H, params, red=red)
        batch = H.route_many(np.array([w]), np.array([key]))
        ev = gg.evaluate(batch)
        assert ev.first_blocked[0] == 2
        # the search-path mask covers w, u, and the red group — nothing past
        assert ev.search_path_mask()[0, : 3].all()
        assert not ev.search_path_mask()[0, 3:].any()

    def test_red_group_off_path_is_harmless(self, scenario):
        H, params, w, key, path = scenario
        red = np.zeros(H.n, dtype=bool)
        off = [g for g in range(H.n) if g not in set(path)]
        red[off[:10]] = True
        gg = GroupGraph(H, params, red=red)
        out = SecureRouter(gg).search(w, key)
        assert out.delivered

    def test_all_to_all_message_cost(self, scenario):
        """Each Fig.-1 edge is |G|x|G| messages (the cost Cor. 1 counts)."""
        H, params, w, key, path = scenario
        gg = GroupGraph(H, params, red=np.zeros(H.n, dtype=bool))
        out = SecureRouter(gg).search(w, key)
        s = params.group_solicit_size
        assert out.messages == (len(path) - 1) * s * s
