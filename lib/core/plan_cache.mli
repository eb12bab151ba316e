(** A bounded LRU cache of compiled plans, epoch-checked.

    Entries remember the {!Relalg.Database.stats_epoch} they were
    compiled under; a lookup under a different epoch invalidates the
    entry (its empty-range decisions — adaptation and range extension,
    through {!Standard_form.range_is_empty} — may no longer hold).  Every hit/miss/eviction/invalidation bumps both the
    per-cache {!stats} and the global [plan_cache.*] counters in
    {!Obs.Metrics}. *)

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
}

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 64 plans; at least 1. *)

val capacity : t -> int
val length : t -> int

val find : t -> epoch:int -> string -> Plan.t option
(** [None] on absence (miss) or epoch mismatch (invalidation — the
    entry is dropped); the caller re-plans and {!add}s. *)

val add : t -> epoch:int -> string -> Plan.t -> unit
(** Insert (or refresh) a plan, evicting the least recently used entry
    when the cache is full. *)

val clear : t -> unit
val stats : t -> stats

val hit_rate : stats -> float
(** Hits over lookups (hits + misses + invalidations); 0.0 — never NaN
    — when the cache has seen no lookups. *)
