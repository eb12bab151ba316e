(** Execution options: every knob of one query execution in a single
    record, so signatures stay stable as knobs are added. *)

type t = {
  strategy : Strategy.t;  (** which of the paper's strategies to enable *)
  join_order : Combination.join_order;
      (** combination-phase join ordering *)
  jobs : int;
      (** domains executing one query, caller included; [1] = the
          byte-identical serial engine, no pool, no snapshots *)
  par_threshold : int;
      (** source cardinality below which a stream materialization keeps
          its windows serial — chunking tiny inputs costs more than it
          saves *)
  batch_size : int;
      (** row window of the vectorized stream kernels; every size from
          [1] up computes the same relations *)
  use_index : bool;
      (** let the collection phase serve restrictions from declared
          secondary indexes; [false] forces heap scans everywhere (the
          differential oracle and the [PASCALR_NO_INDEX] CI leg) *)
}

val default : t
(** {!Strategy.full} with {!Combination.Cost_ordered} joins; [jobs]
    from the [PASCALR_JOBS] environment variable if set to a positive
    integer, else [Domain.recommended_domain_count ()]; [par_threshold]
    4096; [batch_size] from [PASCALR_BATCH_SIZE] if set to a positive
    integer, else 2048; [use_index] true unless [PASCALR_NO_INDEX] is
    set truthy. *)

val default_jobs : int
(** The resolved [jobs] default described under {!default}. *)

val default_batch_size : int
(** The resolved [batch_size] default described under {!default}. *)

val default_use_index : bool
(** The resolved [use_index] default described under {!default}. *)

val make :
  ?strategy:Strategy.t ->
  ?join_order:Combination.join_order ->
  ?jobs:int ->
  ?par_threshold:int ->
  ?batch_size:int ->
  ?use_index:bool ->
  unit ->
  t
(** [jobs] and [batch_size] are clamped to at least 1, [par_threshold]
    to at least 0. *)

val par : t -> Relalg.Domain_pool.par option
(** The parallelism budget the engine threads to the stream kernels'
    window fan-out ({!Relalg.Algebra.Stream.materialize}), the one
    parallel site — [None] when [jobs = 1], which is what makes the
    serial path bypass the pool entirely. *)

val join_order_to_string : Combination.join_order -> string
val join_order_of_string : string -> Combination.join_order option

val fingerprint : t -> string
(** Injective textual form; part of the plan-cache key, because every
    option can change the compiled plan — and [jobs]/[par_threshold]
    must keep plans cached under different parallelism settings from
    colliding. *)

val pp : t Fmt.t
