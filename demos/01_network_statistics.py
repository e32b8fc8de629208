"""Population statistics on a tiny hand-built network.

Builds a 12-node graph by hand, computes every population estimand the
package knows about, and walks through the relationship between the two
homophily scales: the within/cross edge ratio and the assortativity
coefficient.
"""

import numpy as np

from rdsim import (
    Graph,
    assortativity_from_ratio,
    differential_activity,
    homophily_ratio,
    mean_degree,
    mixing_counts,
    newman_assortativity,
    prevalence,
    ratio_from_assortativity,
)

# Two loose clusters with a few bridges between them. The first four nodes
# carry the attribute (the "minority" group).
edges = [
    (0, 1), (0, 2), (1, 2), (2, 3),          # minority cluster
    (4, 5), (4, 6), (5, 6), (6, 7), (7, 8),  # majority cluster
    (8, 9), (9, 10), (10, 11), (8, 11),
    (3, 4), (1, 7),                          # bridges
]
graph = Graph(12, [e[0] for e in edges], [e[1] for e in edges])
z = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0], dtype=np.int8)

print(graph)
print(f"mean degree        : {mean_degree(graph):.3f}")
print(f"prevalence         : {prevalence(z):.3f}")
print(f"differential act.  : {differential_activity(graph, z):.3f}")

degree_counts = np.bincount(graph.degrees)
print(f"degree table       : {dict(enumerate(degree_counts.tolist()))}")
total_degree = int(np.arange(degree_counts.size) @ degree_counts)
print(f"consistency        : sum k*D_k = {total_degree} = 2*|E| = {2 * graph.edge_count}")

counts = mixing_counts(graph, z)
print(f"mixing counts      : within-1 {counts.within_1}, cross {counts.cross}, within-0 {counts.within_0}")
print(f"homophily ratio R  : {homophily_ratio(counts):.3f}")
print(f"assortativity h    : {newman_assortativity(counts):+.3f}")

# The analytic bridge between the two scales, evaluated at this network's
# prevalence and differential activity. It assumes idealized mixing, so it
# will not coincide with the realized-network coefficient above.
p = prevalence(z)
da = differential_activity(graph, z)
r = homophily_ratio(counts)
print(f"bridge h(R)        : {assortativity_from_ratio(r, p, da):+.3f}  (analytic, not the realized value)")

print("\nratio scale <-> assortativity scale at p=0.33, Da=1.16:")
for ratio in (0.1, 0.4, 1.0, 2.0, 5.0):
    h = assortativity_from_ratio(ratio, 0.33, 1.16)
    back = ratio_from_assortativity(h, 0.33, 1.16)
    print(f"  R = {ratio:4.1f}  ->  h = {h:+.4f}  ->  R = {back:.4f}")
