(** The collection phase (paper Section 3.3): evaluate range expressions
    and single join terms into single lists, indexes, indirect joins and
    value lists, with memoization so identical work is done once.

    Two execution modes share the same builders: lazy (one scan per
    structure — the Palermo baseline) and strategy 1's grouped scans
    (all structures over a relation in one pass, honouring
    index-before-probe dependencies).  Strategy 2 folds monadic terms
    and derived predicates into the indirect joins; strategy 4's derived
    predicates are evaluated through {!Relalg.Value_list}.

    A reference made during the execution is the element's ordinal in
    the query's tuple table ({!batch_pool}): single lists and indirect
    joins are int columns of ordinals ({!Relalg.Batch.columns}), built
    by the scan that finds the elements. *)

open Relalg
open Calculus

type t

type component =
  | C_single of var * Batch.columns
      (** single list: reference relation [<@v>] *)
  | C_pair of var * var * Batch.columns
      (** indirect join: reference relation [<@v1, @v2>] *)

val create :
  ?batch_size:int ->
  ?use_index:bool ->
  Database.t ->
  Strategy.t ->
  Plan.t ->
  t
(** [?batch_size] (clamped to at least 1; default 2048) is the
    row window of the combination phase's vectorized stream kernels.
    [?use_index] (default true)
    lets structure builds be driven by declared secondary indexes:
    an equality restriction becomes an index probe, an order
    restriction a sorted range scan while its exact matching fraction
    stays at or below [Cost.range_scan_max_fraction]; every predicate
    is still re-checked per enumerated tuple, so indexed and scanned
    builds produce the same structures.  It also lets a declared
    single-component index stand in for the unfiltered per-query index
    over an unrestricted range that an indirect join probes — the
    paper's permanent index (Section 3.2), whose index-building scan
    is then omitted.  With [false] no declared index is ever read. *)

val batch_size : t -> int
(** The batch size given to {!create}. *)

val batch_pool : t -> Batch.pool
(** The query's tuple table: the ordinals of every structure, of every
    combination-phase column and of the combination result are over
    it. *)

val run : t -> unit
(** With strategy 1, build every structure of the plan up front in
    grouped scans; otherwise a no-op (structures build lazily).  Every
    build runs on the caller. *)

val base_list : t -> var -> Batch.columns
(** The variable's (restricted) range expression as a single list —
    used for padding and as the division divisor. *)

val components : t -> Plan.conj -> component list
(** The structures covering one conjunction's atoms and derived
    predicates (shape depends on strategy 2). *)

val var_schema : t -> var -> Schema.t

val compile_formula : Schema.t -> var -> formula -> (Tuple.t -> bool) option
(** [compile_formula schema v f] is [f]'s truth on an element of [v]
    (of [schema]) as a closure over resolved positions, which allocates
    nothing when applied — when [f] is built of [AND], [TRUE], [FALSE]
    and atoms over [v]'s attributes and constants.  [None] otherwise:
    builds then interpret it with {!Naive_eval.holds}. *)

val intermediate_sizes : t -> (string * int) list
(** Cardinality (or stored size) of every materialized structure, by
    memo key — the intermediate-growth metric of the experiments. *)

val access_paths : t -> (string * string) list
(** The access path that built each structure, by memo key, sorted:
    ["probe"] (secondary-index equality), ["range"] (secondary-index range
    scan) or ["scan"] (heap scan). *)
