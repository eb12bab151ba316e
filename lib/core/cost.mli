(** Cardinality/cost estimation over plans: per-conjunction n-tuple
    volume (the combination phase's combinatorial growth) and
    collection-phase scan volume. *)

open Calculus

type estimate = {
  e_conj_sizes : float list;
  e_combination : float;  (** sum of the estimated n-tuple cardinalities *)
  e_collection : float;  (** elements scanned by the collection phase *)
}

val restricted_cardinality : Stats.t -> range -> float
val formula_selectivity : Stats.t -> string -> formula -> float
val atom_selectivity : Stats.t -> string -> atom -> float
val conj_cardinality : Stats.t -> Plan.t -> Plan.conj -> float
val estimate : Stats.t -> Plan.t -> estimate
val pp : estimate Fmt.t

(** {2 Access-path policy} *)

val range_scan_max_fraction : float
(** Maximum exact matching fraction at which a secondary index
    serves an order restriction as a range scan; above it the heap scan
    is preferred. *)

(** {2 Join ordering over materialized inputs} *)

type join_input = {
  ji_card : int;  (** true cardinality of the materialized input *)
  ji_cols : string list;  (** its column (variable) names *)
  ji_distinct : (string * int) list;  (** distinct count per column *)
}

val greedy_join_order : join_input list -> int list
(** Greedy System-R style ordering of the inputs of one conjunction's
    combine: start from the smallest, then repeatedly add the input
    minimizing [|acc|·|C|·Π 1/max(d_acc, d_C)] over shared columns.
    Returns a permutation of the input indices. *)
