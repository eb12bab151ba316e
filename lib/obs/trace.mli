(** Hierarchical span tracing for the query pipeline.

    A span is one timed step (adapt, standard-form, plan, collection,
    combination, construction, one conjunction, one quantifier
    elimination, ...).  Spans nest; each closed span carries the
    {!Metrics} activity that happened inside it ({!Metrics.diff} of the
    registry around the span), so a trace answers both "where did the
    time go" and "where did the scans/probes/tuples go".

    Tracing is off by default and costs one domain-local lookup per
    {!with_span} when off; the instrumentation sites stay in place
    permanently.  {!collect} turns it on for the duration of one
    callback and returns the finished tree.  The tracer is
    domain-local, like the metrics registry: each domain collects only
    its own spans, and domains may collect at the same time. *)

type span = {
  sp_name : string;
  sp_start_ms : float;
      (** absolute wall-clock start; only differences are meaningful *)
  sp_elapsed_ms : float;
  sp_attrs : (string * Json.t) list;  (** explicit attachments, in order *)
  sp_metrics : Metrics.snapshot;  (** metric activity inside the span *)
  sp_children : span list;  (** in execution order *)
}

val enabled : unit -> bool

val now_ms : unit -> float
(** The tracer's wall clock, in milliseconds — exposed so callers that
    time phases outside spans (the flight recorder) agree with span
    timings. *)

val with_span : ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** Run the callback under a child span of the current span.  When
    tracing is off, just runs the callback.  The span is closed (timed,
    metric delta attached) even if the callback raises. *)

val add_attr : string -> Json.t -> unit
(** Attach an attribute to the innermost open span; no-op when tracing
    is off or no span is open.  A repeated key overwrites. *)

val collect :
  ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a * span
(** [collect name f] enables tracing, runs [f] under a root span called
    [name], disables tracing, and returns [f]'s result with the tree.
    Nested calls on one domain raise [Invalid_argument]. *)

val find : span -> string -> span option
(** First descendant (preorder, the span itself included) with the given
    name. *)

val counter : span -> string -> int
(** Counter delta recorded on the span; 0 when absent. *)

val to_json : span -> Json.t
(** [{name, elapsed_ms, attrs..., metrics, children}]. *)

val to_chrome : span -> Json.t
(** Chrome trace-event JSON: a flat array of complete ([ph = "X"])
    events with microsecond [ts]/[dur] relative to the root span,
    loadable in chrome://tracing and Perfetto.  Span attrs and metric
    deltas are attached under [args]. *)

val pp : span Fmt.t
(** Indented tree with timings and non-zero metric deltas. *)
