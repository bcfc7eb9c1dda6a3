(** Clique cuts from the exclusion-pair conflict graph.

    Place-and-route exclusion pairs say two cores may not share a bus;
    pairwise they give rows [x_aj + x_bj <= 1]. When the pairs form a
    clique [C] of the conflict graph, the single row
    [sum_{i in C} x_ij <= 1] dominates all [|C| choose 2] pairwise rows
    and is strictly tighter on the LP relaxation. This module is purely
    graph-level: callers instantiate the cliques per bus.

    Everything is deterministic: edges are normalized and sorted, and
    cliques grow by ascending vertex scans, so identical inputs yield
    identical cliques in identical order. *)

(** [normalize_edges pairs] drops self-loops and duplicates, orients
    each edge as [(min, max)] and sorts. *)
val normalize_edges : (int * int) list -> (int * int) list

(** [edge_cover_cliques ~n pairs] greedily extracts maximal cliques
    until every conflict edge lies in at least one clique — the set of
    rows that can validly {e replace} the pairwise exclusion rows.
    Each clique is sorted ascending and has >= 2 members; a 2-clique is
    exactly the original pairwise row. *)
val edge_cover_cliques : n:int -> (int * int) list -> int list list
