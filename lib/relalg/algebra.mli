(** Relational algebra over keyed relations — the operator repertoire of
    the paper's combination phase (Section 3.3) as fused streams: join /
    Cartesian product to combine conjunctions, projection for SOME, and
    union for the disjunctive form ({!Stream.run} over several chains).
    Division for ALL runs over the same columns in [Combination]. *)

(** Fused streaming operators, run as vectorized batch kernels over int
    columns: a chain rooted at one source builds one output (at
    {!Stream.run}) instead of one per operator.  Joins build their hash
    table on the build side once and probe it with the streamed rows; counters [combination.join_rows_in]/[_out],
    [algebra.fused.*] and [algebra.batch.*] record the traffic. *)
module Stream : sig
  type t

  val schema : t -> Schema.t

  val of_columns : Batch.pool -> Batch.columns -> t
  (** A chain rooted at columns over the pool — the combination phase's
      sources, int columns of the execution's ordinals. *)

  val of_relation : ?pool:Batch.pool -> Relation.t -> t
  (** The relation-level source: the relation is encoded once
      ({!Batch.of_relation}) into [?pool] (default: a fresh one).  The
      chains of one materialization must share a pool. *)

  val project : t -> string list -> t
  (** Streaming projection; duplicates pass through to the
      materialization's whole-row dedup. *)

  val join : t -> Batch.columns -> t
  (** Hash join on the shared attribute names: the stream probes, the
      columns (over the stream's pool) are the build side.  Degenerates
      to a semijoin when the build side adds no columns, and to
      {!cross} when no attribute names are shared.
      @raise Errors.Type_error if a shared attribute's two domains
      encode into different column classes (an integer against a
      string, say) — values that {!Value.compare} refuses to compare. *)

  val cross : t -> Batch.columns -> t
  (** Cartesian product with columns over the stream's pool. *)

  val natural_join : t -> Relation.t -> t
  (** {!join} with a relation, encoded once into the stream's pool. *)

  val product : t -> Relation.t -> t
  (** {!cross} with a relation, encoded once into the stream's pool. *)

  val run :
    ?par:Domain_pool.par -> ?batch_size:int -> ?name:string -> t list -> Batch.columns
  (** Run each chain once, in list order, collecting the distinct rows
      into one set of columns (schema keyed on the whole row) — with
      several chains, their set union.  Each source is driven through
      the kernels in windows of [batch_size] rows (default 2048; any
      size from 1 up gives the same rows in the same order).

      With [?par] active and a source clearing the threshold, that
      chain's windows are the fan-out unit: shared build tables are
      built before the fork, each chunk of windows gets a private
      kernel instance, and chunk outputs are replayed in order — the
      output is identical to the serial run's for every [jobs].
      @raise Errors.Schema_error if two chains differ in shape.
      @raise Invalid_argument on an empty list, or on chains over
      different pools. *)

  val materialize :
    ?par:Domain_pool.par -> ?batch_size:int -> ?name:string -> t list -> Relation.t
  (** {!run}, decoded into a whole-tuple-keyed relation (the
      relation-level API). *)
end
