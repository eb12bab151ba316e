(** Semi-join programs from the predicate-calculus point of view (paper
    Sections 4.4 and 5): query graphs, tree detection, Bernstein/Chiu
    full reducers, cyclic fixpoint fallback, and the universal (ALL)
    extension via antijoin / at-most-one-value reductions. *)

open Relalg
open Calculus

type edge = { ev1 : var; ea1 : string; ev2 : var; ea2 : string }
type graph = { g_nodes : var list; g_edges : edge list }

val graph_of_conjunction : var list -> Normalize.conjunction -> graph option
(** [None] when the conjunction has a non-equality dyadic term (outside
    the Bernstein/Chiu class).  Monadic terms do not contribute edges. *)

val is_acyclic : graph -> bool
val is_connected : graph -> bool
val is_tree : graph -> bool

type step = { st_target : var; st_source : var; st_edge : edge }

val full_reducer_schedule : graph -> root:var -> step list
(** Bottom-up then top-down semijoin schedule for an acyclic graph. *)

val run_steps :
  (var * Relation.t) list -> step list -> (var * Relation.t) list

type reduction = {
  red_vars : (var * Relation.t) list;
  red_steps : step list;
  red_before : (var * int) list;
  red_after : (var * int) list;
}

val reduce :
  Database.t ->
  (var * range) list ->
  Normalize.conjunction ->
  reduction option
(** Full reducer on trees; fixpoint semijoin iteration on cyclic graphs;
    monadic terms applied up front.  [None] when not applicable. *)

val all_ne_reduce :
  ?name:string ->
  outer_attr:string ->
  inner_attr:string ->
  Relation.t ->
  Relation.t ->
  Relation.t
(** [ALL y IN inner (x.outer_attr <> y.inner_attr)]: the antijoin — the
    universal counterpart of the semijoin; ALL [<>] over a full
    {!Relalg.Value_list} of [inner]'s column. *)

val all_eq_reduce :
  ?name:string ->
  outer_attr:string ->
  inner_attr:string ->
  Relation.t ->
  Relation.t ->
  Relation.t
(** [ALL y IN inner (x.outer_attr = y.inner_attr)] via the at-most-one-
    value test; empty [inner] keeps everything. *)

val some_eq_reduce :
  ?name:string ->
  outer_attr:string ->
  inner_attr:string ->
  Relation.t ->
  Relation.t ->
  Relation.t
(** [SOME y IN inner (x.outer_attr = y.inner_attr)]: the plain
    semijoin, SOME [=] over a full {!Relalg.Value_list} — the step
    {!run_steps} applies. *)

val pp_edge : edge Fmt.t
val pp_graph : graph Fmt.t
val pp_step : step Fmt.t
