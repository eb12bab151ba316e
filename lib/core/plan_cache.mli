(** A bounded LRU cache of compiled plans, each kept with the
    emptiness answers it was compiled under.

    A lookup validates the entry on the caller's snapshot
    ({!Standard_form.still_hold}); if an answer changed, the entry is
    dropped as an invalidation.  Every hit/miss/eviction/invalidation
    bumps both the per-cache {!stats} and the global [plan_cache.*]
    counters in {!Obs.Metrics}. *)

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
}

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 64 plans; at least 1. *)

val length : t -> int

type entry
(** A cached plan with the emptiness answers it was compiled under. *)

val planned : entry -> Plan.t * Standard_form.answers

val find : ?held:entry -> t -> Relalg.Database.t -> string -> entry option
(** [None] on absence (miss) or when an answer the plan was compiled
    under fails on the snapshot (invalidation — the entry is dropped);
    the caller re-plans and {!add}s.  [held] is the entry this caller
    was last served for the key: while it is still cached, the lookup
    checks it without hashing the key. *)

val add : t -> string -> Plan.t * Standard_form.answers -> entry
(** Insert (or refresh) a plan, evicting the least recently used entry
    when the cache is full. *)

val clear : t -> unit
val stats : t -> stats

val hit_rate : stats -> float
(** Hits over lookups (hits + misses + invalidations); 0.0 — never NaN
    — when the cache has seen no lookups. *)
