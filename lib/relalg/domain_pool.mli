(** A small reusable pool of worker domains.

    The engine proper is single-threaded on the main domain; the pool
    exists so {!Algebra.Stream.materialize}, the one parallel site, can
    fan a chain's windows (independent, side-effect-free-on-shared-state
    work) out across cores.  Worker domains are spawned lazily on first
    parallel call and reused across queries — spawning a domain costs
    milliseconds, far more than the work items it runs — and simply
    stay parked on the task queue for the life of the process.

    Contract with callers (the determinism story of DESIGN.md):
    - [jobs <= 1] bypasses the pool entirely: the work runs inline on
      the caller, in index order, touching no mutex, no snapshot and no
      worker — the serial engine is byte-identical to the pre-pool one.
    - Tasks must not touch shared mutable engine state ({!Relation.t},
      {!Buffer_pool}, …); they receive immutable snapshots and build
      private results the caller combines in task order.
    - {!Obs.Metrics} increments made inside a worker land in that
      domain's private registry; the pool captures them per task as a
      snapshot delta and merges them into the caller's registry after
      the join, so counter totals equal the serial run's.
    - An exception raised by a task is caught, and the join point
      re-raises the one from the lowest task index — the same error the
      serial engine (which runs tasks in index order and stops at the
      first failure) would report.  Tasks being independent, the lowest
      failing index does not depend on scheduling. *)

type par = { jobs : int; threshold : int }
(** Parallelism budget as resolved by [Exec_opts]: worker count
    (including the caller, which always participates) and the source
    cardinality below which a stream materialization stays serial. *)

val active : par option -> int -> par option
(** [active par n] is [Some p] when [par] allows parallel execution of
    an [n]-element input: [p.jobs > 1] and [n >= p.threshold]. *)

val run_tasks : jobs:int -> int -> (int -> unit) -> unit
(** [run_tasks ~jobs n f] runs [f 0 .. f (n-1)], fanned across at most
    [jobs] domains (the caller plus up to [jobs-1] pool workers).
    Returns after all tasks finish; worker metrics deltas are merged
    and the lowest-index task exception (if any) re-raised, as per the
    module contract.  With [jobs <= 1], [n <= 1], or when already
    running on a pool worker (nested parallelism), the tasks run inline
    on the caller in index order. *)

val parallel_map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ~jobs f arr] maps [f] over [arr] via {!run_tasks};
    the result array is in input order regardless of [jobs]. *)

val chunk : pieces:int -> 'a array -> 'a array array
(** Split into at most [pieces] contiguous, order-preserving,
    balanced chunks (each within one element of [n/pieces]); empty
    input gives no chunks.  Concatenating the chunks in order yields
    the input array back — the identity partitioned operators rely on
    for [jobs]-independent output ordering. *)

val parallel_chunks : jobs:int -> 'a array -> (int -> 'a array -> 'b) -> 'b list
(** [parallel_chunks ~jobs arr f] chunks [arr] into at most [jobs]
    pieces, applies [f chunk_index chunk] to each in parallel, and
    returns the results in chunk order.  Bumps the ["parallel.chunks"]
    counter by the number of chunks when more than one is used. *)

val spawned_domains : unit -> int
(** Total worker domains spawned so far in this process — observable
    pool-reuse evidence for tests: repeated parallel calls at the same
    [jobs] must not grow it (until a {!shutdown}, after which the next
    parallel call respawns and the total grows again). *)

val shutdown : unit -> unit
(** Quiesce the pool: drain pending jobs, stop and join every worker
    domain.  Even parked workers tax later stop-the-world GC sections,
    so long-lived processes (the bench harness, the traffic driver)
    call this once a parallel phase is over.  Must not be called with a
    {!run_tasks} in flight.  The pool respawns lazily on the next
    parallel call; a no-op when no workers are alive. *)
