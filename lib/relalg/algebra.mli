(** Relational algebra over keyed relations — the operator repertoire of
    the paper's combination phase (Section 3.3) as fused streams: join /
    Cartesian product to combine conjunctions, projection for SOME, and
    union for the disjunctive form ({!Stream.materialize} over several
    chains).  Division for ALL runs over the same column encodes in
    [Combination]. *)

(** Fused streaming operators, run as vectorized batch kernels: a chain
    rooted at one source relation allocates one output relation (at
    {!Stream.materialize}) instead of one per operator.  Joins build
    their hash table on the relation side once and probe it with the
    streamed rows; counters [combination.join_rows_in]/[_out],
    [algebra.fused.*] and [algebra.batch.*] record the traffic. *)
module Stream : sig
  type t

  val schema : t -> Schema.t

  val of_relation : ?pool:Batch.pool -> Relation.t -> t
  (** [?pool] shares one interning pool (and its per-relation encode
      cache) across the chains of a query, so a base relation padded
      into several disjuncts is encoded once.  Defaults to a fresh
      pool per chain. *)

  val project : t -> string list -> t
  (** Streaming projection; duplicates pass through to the
      materialization's whole-tuple key. *)

  val natural_join : t -> Relation.t -> t
  (** Hash join on the shared attribute names: the stream probes, the
      relation is the build side.  Degenerates to a semijoin when the
      build side adds no columns, and to {!product} when no attribute
      names are shared.
      @raise Errors.Type_error if a shared attribute's two domains
      encode into different column classes (an integer against a
      string, say) — values that {!Value.compare} refuses to compare. *)

  val product : t -> Relation.t -> t

  val materialize :
    ?par:Domain_pool.par -> ?batch_size:int -> ?name:string -> t list -> Relation.t
  (** Run each chain once, in list order, collecting into one
      whole-tuple-keyed relation — with several chains, their set
      union.  Each source is encoded into column arrays and driven
      through the kernels in windows of [batch_size] rows (default
      2048; any size from 1 up gives the same relation, iteration order
      included).

      With [?par] active and a source clearing the threshold, that
      chain's windows are the fan-out unit: shared build tables and
      encodes are built before the fork, each chunk of windows gets a
      private kernel instance, and chunk outputs are replayed in order —
      the output relation is identical to the serial run's for every
      [jobs].
      @raise Errors.Schema_error if two chains differ in shape.
      @raise Invalid_argument on an empty list. *)
end
