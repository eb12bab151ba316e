(** The combination phase (paper Section 3.3): combine each
    conjunction's reference structures into n-tuples, union the
    disjuncts, and eliminate quantifiers right to left — projection for
    SOME, division for ALL.  Every relation of the phase is int columns
    of the query's tuple-table ordinals ({!Collection.batch_pool}). *)

open Relalg

type join_order =
  | Cost_ordered
      (** Streaming engine (default): joins each conjunction's
          components in greedy cost order over their true cardinalities,
          projects existentially quantified variables away eagerly
          inside the combine, and eliminates the prefix disjunct-wise —
          a variable that would only be padded and then projected away
          is never joined at all, so max_ntuple is bounded by the
          live-variable frontier. *)
  | Declaration
      (** The paper's literal baseline: pad every conjunction to the
          full variable order, union, then eliminate right to left over
          the padded n-tuple relation. *)

type outcome = {
  o_result : Batch.columns;
      (** the reference relation over the free variables, in
          declaration order: ordinals for construction to read back *)
  o_max_ntuple : int;
      (** cardinality of the largest n-tuple relation built — the
          combinatorial-growth metric *)
  o_join_algos : (string * string) list;
      (** per streaming join step that shares a variable with the
          accumulated result, ["conj<i>.j<n>:<build relation>"] ->
          ["hash"], the algorithm that ran; empty under {!Declaration} *)
}

val evaluate :
  ?par:Domain_pool.par -> ?join_order:join_order -> Collection.t -> Plan.t -> outcome
(** The combination phase's one entry point.  [?par] is the parallelism
    budget of the stream materializations' window fan-out
    ([Exec_opts.par]); omitted, every chain runs serially.
    Precondition: every prefix range is non-empty (established by
    {!Standard_form.adapt_query}). *)

val divide : v:string -> Relation.t -> Relation.t -> Relation.t
(** [divide ~v r s]: the columnar division both engines run, at the
    relation level — the tuples over [r]'s columns other than [v] whose
    [v]-images in [r] cover every [v] value of [s].  An empty divisor
    yields every quotient (ALL over the empty range holds vacuously).
    Both inputs are encoded once into a fresh pool and the quotient is
    decoded.
    @raise Errors.Schema_error if [v] is [r]'s only column.
    @raise Errors.Type_error if the two [v] columns encode into
    different column classes. *)
