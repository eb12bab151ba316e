(* The COLLECTION PHASE (paper Section 3.3, strategies 1, 2 and 4 of
   Section 4).

   This phase "evaluates range expressions and single join terms.  The
   results are single lists and indirect joins for all monadic and
   dyadic join terms in the selection expression.  This phase performs
   data compression (records to references) and data reduction (testing
   join terms)."

   All intermediate results are memoized by a stable textual key so that
   identical work — same join term under the same restrictions — is done
   once.  Two execution modes share the same builders:

   - lazy (Palermo baseline): every requested structure performs its own
     scan of its source relation;
   - strategy 1 ([parallel_scan]): a scheduling pre-pass groups every
     pending structure by source relation and executes all structures of
     a relation in a single scan, honouring build-before-probe
     dependencies (an indirect join can only probe an index that has
     already been materialized — Example 4.3 reads timetable before
     courses and employees).

   Strategy 2 ([monadic_restrict]) changes which structures a
   conjunction requests: monadic join terms and derived predicates
   become filters of the indirect joins (and partial indexes) instead of
   separate single lists.  Strategy 4's derived predicates are evaluated
   here through value lists (module {!Relalg.Value_list}). *)

open Relalg
open Calculus

(* The index side of an indirect join: the per-query {!Index} this
   phase builds, or a declared secondary index standing in for it
   (paper Section 3.2: "The first step can be omitted, if permanent
   indexes exist") — its buckets hold tuples of the range relation,
   whose ordinals are the references. *)
type probe_index =
  | Built of Index.t
  | Declared of Secondary_index.t * Relation.t

(* A reference made during an execution is the element's ordinal in the
   query's tuple table ([batch_pool]): single lists and indirect joins
   are int columns of ordinals, filled by the scan that finds the
   elements. *)
type entry =
  | E_rel of Batch.columns
  | E_index of probe_index
  | E_vlist of Value_list.t * bool  (* value list, monadics-hold-for-all flag *)

(* Access paths.

   A structure build is driven either by the heap scan of its source
   relation or — when a declared secondary index can enumerate a
   superset-free candidate set — by an index probe (equality) or range
   scan (order comparison).  Soundness: the build's per-tuple action
   re-checks EVERY predicate (range restriction, monadic atoms, derived
   predicates), so the index may serve any single atom that every
   qualifying tuple must satisfy; the index merely shrinks the driving
   enumeration from the whole heap to the matching tuples. *)

type drive =
  | Drive_scan
  | Drive_index of Secondary_index.t * Value.comparison * Value.t

(* One execution's collection phase: the structures built so far
   ([cache]) and the structure table describing every structure the
   plan needs ([specs], [schedule], [comps]). *)
type t = {
  db : Database.t;
  strategy : Strategy.t;
  plan : Plan.t;
  schemas : Schema.t Var_map.t;
  cache : (string, entry) Hashtbl.t;
  specs : (string, spec) Hashtbl.t;
      (* the structure table: every structure the plan needs, by key,
         derived once by [create]; a base list outside the schedule is
         added when first asked for *)
  schedule : spec list;  (* strategy 1's structures, prerequisites first *)
  comps : comp_spec list array;  (* each conjunction's components *)
  batch_size : int;  (* row window of the vectorized stream kernels *)
  batch_pool : Batch.pool;
      (* the query's tuple table: every structure's ordinals and every
         combination-phase column are over it *)
  use_index : bool;
      (* serve structure builds from declared secondary indexes when a
         restriction allows it; false = heap scans everywhere *)
  access : (string, string) Hashtbl.t;
      (* spec key -> "probe" | "range" | "scan", recorded as each
         structure is built — the per-term access-path report *)
}

(* A spec describes one intermediate structure: its cache key, the
   relation whose scan produces it, the keys it depends on, and how to
   start it (returning a per-tuple action and a finisher).  Both the
   lazy mode and the strategy-1 scheduler execute specs; the only
   difference is how scans are shared. *)
and spec = {
  sp_key : string;
  sp_rel : string;  (* relation scanned to build this structure *)
  sp_deps : string list;
  sp_drive : drive;  (* heap scan or secondary-index enumeration *)
  sp_start : t -> (Tuple.t -> unit) * (unit -> entry);
}

(* One component of a conjunction: the key of the structure covering
   it, and the specs that build it, prerequisites first, that structure
   last. *)
and comp_spec =
  | CS_single of { key : string; v : var; specs : spec list }
  | CS_pair of { key : string; v1 : var; v2 : var; specs : spec list }

type component =
  | C_single of var * Batch.columns
  | C_pair of var * var * Batch.columns

(* ------------------------------------------------------------------ *)
(* Setup *)

let var_schemas db (plan : Plan.t) =
  let bind acc (v, (r : range)) =
    let rel = Database.find_relation db r.range_rel in
    Var_map.add v (Relation.schema rel) acc
  in
  let acc = List.fold_left bind Var_map.empty plan.Plan.free in
  List.fold_left
    (fun acc e -> bind acc (e.Normalize.v, e.Normalize.range))
    acc plan.Plan.prefix

let batch_size t = t.batch_size
let batch_pool t = t.batch_pool

let var_schema t v = Var_map.find v t.schemas

let range_of_exn t v =
  match Plan.range_of t.plan v with
  | Some r -> r
  | None -> invalid_arg ("Collection: variable without a range: " ^ v)

let single_schema t v =
  let r = range_of_exn t v in
  Schema.make [ Schema.attr v (Vtype.reference r.range_rel) ] ~key:[]

let pair_schema t v1 v2 =
  let r1 = range_of_exn t v1 and r2 = range_of_exn t v2 in
  Schema.make
    [
      Schema.attr v1 (Vtype.reference r1.range_rel);
      Schema.attr v2 (Vtype.reference r2.range_rel);
    ]
    ~key:[]

(* ------------------------------------------------------------------ *)
(* Per-tuple predicates.

   A build tests every element its scan delivers, so its tests are
   compiled once, when the build starts: attribute names resolve to
   positions, and each atom over the build's variable and constants
   becomes a closure over them.  Applying a compiled test allocates
   nothing.  Anything else — a quantifier, OR, NOT, a foreign variable,
   an unbound [$param], an unknown attribute — is interpreted by
   {!Naive_eval.holds}, with its errors raised per tuple. *)

type pred = Tuple.t -> bool

let always : pred = fun _ -> true

(* Conjunction, [p] first, folding away the trivial side. *)
let both (p : pred) (q : pred) : pred =
  if p == always then q else if q == always then p else fun t -> p t && q t

let all (ps : pred list) = List.fold_right both ps always

let compile_formula schema v f =
  let operand = function
    | O_const c -> Some (Either.Right c)
    | O_attr (v', at) when String.equal v' v && Schema.mem schema at ->
      Some (Either.Left (Schema.index_of schema at))
    | O_attr _ | O_param _ -> None
  in
  let rec compile = function
    | F_true -> Some always
    | F_false -> Some (fun _ -> false)
    | F_atom { lhs; op; rhs } -> (
      match operand lhs, operand rhs with
      | Some (Either.Left i), Some (Either.Right c) ->
        Some (fun (t : Tuple.t) -> Value.apply op t.(i) c)
      | Some (Either.Right c), Some (Either.Left i) ->
        Some (fun (t : Tuple.t) -> Value.apply op c t.(i))
      | Some (Either.Left i), Some (Either.Left j) ->
        Some (fun (t : Tuple.t) -> Value.apply op t.(i) t.(j))
      | Some (Either.Right c), Some (Either.Right d) ->
        Some (fun _ -> Value.apply op c d)
      | None, _ | _, None -> None)
    | F_and (a, b) -> (
      match compile a, compile b with
      | Some p, Some q -> Some (both p q)
      | None, _ | _, None -> None)
    | F_not _ | F_or _ | F_some _ | F_all _ -> None
  in
  compile f

(* [f]'s truth on an element of [v]: compiled, or interpreted. *)
let formula_pred db schema v f : pred =
  match compile_formula schema v f with
  | Some p -> p
  | None ->
    fun tuple ->
      Naive_eval.holds db (Var_map.singleton v { Naive_eval.tuple; schema }) f

let restriction_pred db schema = function
  | None -> always
  | Some (rv, f) -> formula_pred db schema rv f

(* The conjunction of monadic atoms over [v]. *)
let monadic_pred db schema v atoms =
  formula_pred db schema v
    (List.fold_right (fun a f -> F_and (F_atom a, f)) atoms F_true)

(* Reads one attribute off an element: the position resolves once. *)
let getter schema name =
  let i = Schema.index_of schema name in
  fun (tuple : Tuple.t) -> tuple.(i)

(* ------------------------------------------------------------------ *)
(* Cache plumbing *)

let find_rel t key =
  match Hashtbl.find_opt t.cache key with
  | Some (E_rel r) -> Some r
  | Some (E_index _ | E_vlist _) | None -> None

let find_index t key =
  match Hashtbl.find_opt t.cache key with
  | Some (E_index i) -> Some i
  | Some (E_rel _ | E_vlist _) | None -> None

let find_vlist t key =
  match Hashtbl.find_opt t.cache key with
  | Some (E_vlist (vl, ok)) -> Some (vl, ok)
  | Some (E_rel _ | E_index _) | None -> None

(* ------------------------------------------------------------------ *)
(* Structure specifications, derived once per execution by [create]. *)

(* Atoms any qualifying tuple of the build must satisfy: the monadic
   atoms its per-tuple action tests, plus the top-level conjuncts of
   the range restriction.  Each is normalized to (component, op,
   constant) with the component on the left. *)
let served_candidates v (range : range) atoms =
  let rec conjuncts = function
    | F_and (a, b) -> conjuncts a @ conjuncts b
    | (F_atom _ | F_true | F_false | F_not _ | F_or _ | F_some _ | F_all _)
      as f -> [ f ]
  in
  let of_atom over (a : atom) =
    match a.lhs, a.rhs with
    | O_attr (v', at), O_const c when String.equal v' over -> Some (at, a.op, c)
    | O_const c, O_attr (v', at) when String.equal v' over ->
      Some (at, Value.flip_comparison a.op, c)
    | _ -> None
  in
  let restr =
    match range.restriction with
    | Some (rv, f) ->
      List.filter_map
        (function F_atom a -> of_atom rv a | _ -> None)
        (conjuncts f)
    | None -> []
  in
  restr @ List.filter_map (of_atom v) atoms

(* Pick the best index drive for a build over [v]'s range: an equality
   candidate always prefers a probe; an order candidate uses an index's
   range scan only while its exact matching fraction stays at
   or below {!Cost.range_scan_max_fraction}.  Among eligible drives the
   one enumerating the smallest fraction of the heap wins. *)
let choose_drive t v (range : range) atoms =
  if not t.use_index then Drive_scan
  else begin
    let best = ref None in
    List.iter
      (fun (attr, op, c) ->
        List.iter
          (fun idx ->
            let cap = Cost.range_scan_max_fraction in
            let frac =
              match op with
              | Value.Eq ->
                Some (Secondary_index.matching_fraction ~cap idx op c)
              | Value.Lt | Value.Le | Value.Gt | Value.Ge ->
                let f = Secondary_index.matching_fraction ~cap idx op c in
                if f <= cap then Some f else None
              | Value.Ne -> None
            in
            match frac, !best with
            | Some f, Some (bf, _) when bf <= f -> ()
            | Some f, _ -> best := Some (f, Drive_index (idx, op, c))
            | None, _ -> ())
          (Database.secondary_on t.db range.range_rel attr))
      (served_candidates v range atoms);
    match !best with Some (_, d) -> d | None -> Drive_scan
  end

let access_label = function
  | Drive_scan -> "scan"
  | Drive_index (_, Value.Eq, _) -> "probe"
  | Drive_index _ -> "range"

(* Storage policy of a value list, from the paper's Section 4.4 special
   cases. *)
let storage_for quant op =
  match quant, op with
  | _, (Value.Lt | Value.Le | Value.Gt | Value.Ge) -> Value_list.Bounds
  | Normalize.Q_all, Value.Eq | Normalize.Q_some, Value.Ne ->
    Value_list.At_most_one
  | Normalize.Q_all, Value.Ne | Normalize.Q_some, Value.Eq -> Value_list.Full

let vlist_key (p : Plan.pushed) = "vlist:" ^ Plan.pushed_id p

(* Predicate of an already-built derived structure: decides, for one
   value of the outer variable's component, whether the pushed
   quantifier holds. *)
let pushed_predicate_of_entry (p : Plan.pushed) (vl, m_ok) =
  match p.Plan.p_quant with
  | Normalize.Q_some ->
    fun v -> Value_list.quant_holds ~quant:Value_list.Q_some p.Plan.p_op v vl
  | Normalize.Q_all ->
    fun v ->
      m_ok && Value_list.quant_holds ~quant:Value_list.Q_all p.Plan.p_op v vl

(* The derived predicates [pushed] over elements of [schema], read from
   their already-built value lists. *)
let derived_pred t schema (pushed : Plan.pushed list) =
  all
    (List.map
       (fun (p : Plan.pushed) ->
         match find_vlist t (vlist_key p) with
         | Some e ->
           let holds = pushed_predicate_of_entry p e
           and outer = getter schema p.Plan.p_outer_attr in
           fun tuple -> holds (outer tuple)
         | None -> invalid_arg "Collection: derived value list not built")
       pushed)

(* The tests a build's qualifying element of [v]'s range passes: the
   range restriction, the monadic atoms, the derived predicates. *)
let element_pred t (range : range) schema v atoms derived =
  all
    [
      restriction_pred t.db schema range.restriction;
      monadic_pred t.db schema v atoms;
      derived_pred t schema (List.map snd derived);
    ]

(* The structure a spec list builds: its last spec, after its
   prerequisites. *)
let rec last = function
  | [ sp ] -> sp
  | _ :: rest -> last rest
  | [] -> invalid_arg "Collection: empty spec list"

(* The specs of several structures, each after its prerequisites, and
   the keys of those structures. *)
let concat_keyed lists =
  (List.concat lists, List.map (fun l -> (last l).sp_key) lists)

(* Specs for value lists, recursively including nested ones. *)
let rec vlist_specs t (p : Plan.pushed) : spec list =
  let nested, nested_keys =
    concat_keyed (List.map (vlist_specs t) p.Plan.p_nested)
  in
  let key = vlist_key p in
  let range = p.Plan.p_range in
  let rel = Database.find_relation t.db range.range_rel in
  let schema = Relation.schema rel in
  let start t =
    let vl =
      Value_list.create
        ~storage:(storage_for p.Plan.p_quant p.Plan.p_op)
        ~domain:(Schema.type_of schema p.Plan.p_inner_attr)
        ~rows:(Relation.cardinality (Database.find_relation t.db range.range_rel))
        ()
    in
    let m_ok = ref true in
    let in_range = restriction_pred t.db schema range.restriction
    and inner = getter schema p.Plan.p_inner_attr
    and qualifies =
      both
        (monadic_pred t.db schema p.Plan.p_var p.Plan.p_monadic)
        (derived_pred t schema p.Plan.p_nested)
    in
    let per_tuple =
      match p.Plan.p_quant with
      | Normalize.Q_some ->
        (* Only qualifying elements enter the list. *)
        fun tuple ->
          if in_range tuple && qualifies tuple then Value_list.add vl (inner tuple)
      | Normalize.Q_all ->
        (* Every range element enters the list; monadic/nested terms
           must hold for all of them. *)
        fun tuple ->
          if in_range tuple then begin
            Value_list.add vl (inner tuple);
            if not (qualifies tuple) then m_ok := false
          end
    in
    (per_tuple, fun () -> E_vlist (vl, !m_ok))
  in
  nested
  @ [
      {
        sp_key = key;
        sp_rel = range.range_rel;
        sp_deps = nested_keys;
        (* Value lists must see every range element (a Q_all list's
           monadics-hold-for-all flag inspects even non-qualifying
           tuples), so they always build from the heap scan. *)
        sp_drive = Drive_scan;
        sp_start = start;
      };
    ]

(* A single list [<@v>]: the ordinals of the scanned elements of [v]'s
   range relation [rel] that [keep] accepts.  A scan delivers each
   element once, so the list needs no dedup. *)
let single_list t v rel keep =
  let out = Batch.acc_create ~name:("sl_" ^ v) (single_schema t v) in
  let ord = Batch.ordinals t.batch_pool rel in
  ( (fun tuple -> if keep tuple then Batch.acc_push_cell out 0 (ord tuple)),
    fun () -> E_rel (Batch.acc_finish out) )

(* Base single list of a variable: its (restricted) range expression
   evaluated to a reference relation [<@v>]. *)
let base_key v = "base:" ^ v

let base_spec t v : spec =
  let range = range_of_exn t v in
  let rel = Database.find_relation t.db range.range_rel in
  let schema = Relation.schema rel in
  let start t =
    let keep = restriction_pred t.db schema range.restriction in
    single_list t v rel keep
  in
  {
    sp_key = base_key v;
    sp_rel = range.range_rel;
    sp_deps = [];
    sp_drive = choose_drive t v range [];
    sp_start = start;
  }

(* Filtered single list: references of v's range elements satisfying a
   set of monadic atoms and derived predicates. *)
let single_key v atoms derived =
  Fmt.str "single:%s:%s:[%s]" v (Plan.atoms_id atoms)
    (String.concat ";" (List.map Plan.derived_id derived))

(* The value lists of a build's derived predicates. *)
let derived_specs t derived =
  concat_keyed (List.map (fun (_, p) -> vlist_specs t p) derived)

let single_spec t v atoms (derived : (var * Plan.pushed) list) : spec list =
  let range = range_of_exn t v in
  let rel = Database.find_relation t.db range.range_rel in
  let schema = Relation.schema rel in
  let vspecs, vkeys = derived_specs t derived in
  let key = single_key v atoms derived in
  let start t = single_list t v rel (element_pred t range schema v atoms derived) in
  vspecs
  @ [
      {
        sp_key = key;
        sp_rel = range.range_rel;
        sp_deps = vkeys;
        sp_drive = choose_drive t v range atoms;
        sp_start = start;
      };
    ]

(* (Partial) index over the component of a variable's range relation,
   filtered by the variable's range restriction, monadic atoms and
   derived predicates. *)
let index_key v attr atoms derived =
  Fmt.str "index:%s.%s:%s:[%s]" v attr (Plan.atoms_id atoms)
    (String.concat ";" (List.map Plan.derived_id derived))

(* A declared index standing in for a per-query one (Section 3.2's
   permanent indexes): a declared single-component index stands in only
   for an unfiltered index over an unrestricted range, and only when
   indexes are in use.  It enters the cache as its spec is derived, so
   that spec never builds.  [t.db] is the transaction view, so the
   stand-in is the index state pinned with the relation — or the
   private copy its writes maintain. *)
let stand_in t (range : range) attr atoms derived key =
  if t.use_index && range.restriction = None && atoms = [] && derived = [] then
    match Database.secondary_on t.db range.range_rel attr with
    | idx :: _ ->
      Hashtbl.replace t.cache key
        (E_index (Declared (idx, Database.find_relation t.db range.range_rel)))
    | [] -> ()

let index_spec t v attr atoms derived : spec list =
  let range = range_of_exn t v in
  let rel = Database.find_relation t.db range.range_rel in
  let schema = Relation.schema rel in
  let vspecs, vkeys = derived_specs t derived in
  let key = index_key v attr atoms derived in
  stand_in t range attr atoms derived key;
  let start t =
    let idx = Index.create rel ~on:[ attr ] in
    let keep = element_pred t range schema v atoms derived
    and ord = Batch.ordinals t.batch_pool rel in
    let per_tuple tuple = if keep tuple then Index.add idx tuple (ord tuple) in
    (per_tuple, fun () -> E_index (Built idx))
  in
  vspecs
  @ [
      {
        sp_key = key;
        sp_rel = range.range_rel;
        sp_deps = vkeys;
        sp_drive = choose_drive t v range atoms;
        sp_start = start;
      };
    ]

(* Indirect join for one dyadic join term: a reference relation of
   element pairs satisfying it (Section 3.2).  The later variable in the
   canonical order is indexed, the earlier one probes — the direction
   used by Example 4.3 (timetable and papers are indexed; courses and
   employees probe). *)

type pair_shape = {
  ps_atom : atom;
  ps_probe : var;
  ps_probe_attr : string;
  ps_probe_op : Value.comparison;  (* oriented: indexed_value op probe_value *)
  ps_index : var;
  ps_index_attr : string;
}

let pair_shape order (a : atom) =
  let position v =
    let rec go i = function
      | [] -> invalid_arg ("Collection: variable not in order: " ^ v)
      | x :: rest -> if String.equal x v then i else go (i + 1) rest
    in
    go 0 order
  in
  match a.lhs, a.rhs with
  | O_attr (v1, a1), O_attr (v2, a2) when not (String.equal v1 v2) ->
    if position v1 <= position v2 then
      (* v1 probes the index on v2; truth: probe op indexed, i.e.
         indexed (flip op) probe. *)
      {
        ps_atom = a;
        ps_probe = v1;
        ps_probe_attr = a1;
        ps_probe_op = Value.flip_comparison a.op;
        ps_index = v2;
        ps_index_attr = a2;
      }
    else
      (* v2 probes; truth: indexed op probe. *)
      {
        ps_atom = a;
        ps_probe = v2;
        ps_probe_attr = a2;
        ps_probe_op = a.op;
        ps_index = v1;
        ps_index_attr = a1;
      }
  | _ -> invalid_arg "Collection.pair_shape: not a dyadic join term"

(* Probing either kind of index side for the ordinals of the matching
   elements, set up once per build. *)
let index_iter pool = function
  | Built i -> Index.iter_matching i
  | Declared (i, rel) ->
    let ord = Batch.ordinals pool rel in
    fun op probe f -> Secondary_index.iter_matching i op probe (fun t -> f (ord t))

let index_exists idx op probe =
  match idx with
  | Built i -> Index.exists_matching i op probe
  | Declared (i, _) -> Secondary_index.exists_matching i op probe

(* A mutual atom's index filters decide which probe elements the pair
   keeps, so a filtered one is part of the key. *)
let pair_key shape probe_atoms probe_derived index_atoms index_derived mutual =
  let derived_ids d = String.concat ";" (List.map Plan.derived_id d) in
  let mutual_id (m, atoms, derived) =
    match atoms, derived with
    | [], [] -> Plan.atom_id m.ps_atom
    | _ ->
      Fmt.str "%s:index[%s|%s]" (Plan.atom_id m.ps_atom) (Plan.atoms_id atoms)
        (derived_ids derived)
  in
  Fmt.str "pair:%s:probe[%s|%s]:index[%s|%s]:mutual[%s]"
    (Plan.atom_id shape.ps_atom)
    (Plan.atoms_id probe_atoms) (derived_ids probe_derived)
    (Plan.atoms_id index_atoms) (derived_ids index_derived)
    (String.concat ";" (List.map mutual_id mutual))

(* [mutual] lists the OTHER dyadic join terms of the same conjunction
   that probe from the same variable — paper Section 4.2: "this
   technique also allows two indirect joins to restrict each other".
   While scanning the probe relation, an element only contributes pairs
   if it also has a match in every mutual atom's index. *)
let pair_spec t shape ~probe_atoms ~probe_derived ~index_atoms ~index_derived
    ~mutual : spec list =
  let v = shape.ps_probe in
  let range = range_of_exn t v in
  let rel = Database.find_relation t.db range.range_rel in
  let schema = Relation.schema rel in
  let idx_specs = index_spec t shape.ps_index shape.ps_index_attr index_atoms index_derived in
  let idx_key = (last idx_specs).sp_key in
  (* Mutual atoms contribute their (unfiltered-by-this-conjunction's-
     probe-side) indexes as dependencies. *)
  let mutual_with_keys =
    List.map
      (fun (m, m_index_atoms, m_index_derived) ->
        let specs =
          index_spec t m.ps_index m.ps_index_attr m_index_atoms m_index_derived
        in
        (m, (last specs).sp_key, specs))
      mutual
  in
  let vspecs, vkeys = derived_specs t probe_derived in
  let key =
    pair_key shape probe_atoms probe_derived index_atoms index_derived mutual
  in
  let start t =
    let idx =
      match find_index t idx_key with
      | Some i -> i
      | None -> invalid_arg "Collection: index not built before probe"
    in
    let mutual_checks =
      List.map
        (fun (m, m_key, _) ->
          match find_index t m_key with
          | Some mi ->
            let probe_value = getter schema m.ps_probe_attr in
            fun tuple -> index_exists mi m.ps_probe_op (probe_value tuple)
          | None -> invalid_arg "Collection: mutual index not built")
        mutual_with_keys
    in
    let out =
      Batch.acc_create
        ~name:("ij_" ^ shape.ps_probe ^ "_" ^ shape.ps_index)
        (pair_schema t shape.ps_probe shape.ps_index)
    in
    let keep =
      both
        (element_pred t range schema v probe_atoms probe_derived)
        (all mutual_checks)
    and probe_value = getter schema shape.ps_probe_attr
    and ord = Batch.ordinals t.batch_pool rel
    and matching = index_iter t.batch_pool idx in
    (* One row per (probe element, matching index element): distinct
       probe elements and disjoint index buckets make every row
       distinct, so the structure needs no dedup.  [probe] is the
       ordinal of the probe element being matched, read by [pair], which
       is built once rather than per element. *)
    let probe = ref 0 in
    let pair i =
      Batch.acc_push_cell out 0 !probe;
      Batch.acc_push_cell out 1 i
    in
    let per_tuple tuple =
      if keep tuple then begin
        probe := ord tuple;
        matching shape.ps_probe_op (probe_value tuple) pair
      end
    in
    (per_tuple, fun () -> E_rel (Batch.acc_finish out))
  in
  vspecs @ idx_specs
  @ List.concat_map (fun (_, _, specs) -> specs) mutual_with_keys
  @ [
      {
        sp_key = key;
        sp_rel = range.range_rel;
        sp_deps =
          (idx_key :: List.map (fun (_, k, _) -> k) mutual_with_keys) @ vkeys;
        sp_drive = choose_drive t v range probe_atoms;
        sp_start = start;
      };
    ]

(* ------------------------------------------------------------------ *)
(* Conjunction components.

   With strategy 2, a conjunction's monadic atoms and derived predicates
   filter its indirect joins directly (and the partial indexes feeding
   them); variables with no dyadic term get one merged single list.
   Without it, each atom and each derived predicate materializes its own
   unrestricted structure. *)

let single_comp v specs = CS_single { key = (last specs).sp_key; v; specs }

let pair_comp shape specs =
  CS_pair
    { key = (last specs).sp_key; v1 = shape.ps_probe; v2 = shape.ps_index; specs }

let conj_comp_specs t order (conj : Plan.conj) : comp_spec list =
  let atoms = conj.Plan.atoms in
  let monadic v = Plan.monadic_over v atoms in
  let derived v =
    List.filter (fun (vm, _) -> String.equal vm v) conj.Plan.derived
  in
  let dyadics = List.filter is_dyadic atoms in
  let shapes = List.map (pair_shape order) dyadics in
  if t.strategy.Strategy.monadic_restrict then
    let pair_specs =
      List.map
        (fun shape ->
          (* Mutual restriction (Section 4.2): every other dyadic term
             of this conjunction probing from the same variable filters
             this indirect join's probe side through its own index. *)
          let mutual =
            List.filter_map
              (fun s2 ->
                if
                  (not (Calculus.equal_atom s2.ps_atom shape.ps_atom))
                  && String.equal s2.ps_probe shape.ps_probe
                then Some (s2, monadic s2.ps_index, derived s2.ps_index)
                else None)
              shapes
          in
          pair_comp shape
            (pair_spec t shape ~probe_atoms:(monadic shape.ps_probe)
               ~probe_derived:(derived shape.ps_probe)
               ~index_atoms:(monadic shape.ps_index)
               ~index_derived:(derived shape.ps_index) ~mutual))
        shapes
    in
    let single_specs =
      List.filter_map
        (fun v ->
          let m = monadic v and d = derived v in
          let has_dyadic =
            List.exists (fun a -> Var_set.mem v (atom_vars a)) dyadics
          in
          if has_dyadic || (m = [] && d = []) then None
          else Some (single_comp v (single_spec t v m d)))
        (Var_set.elements (Plan.conj_vars conj))
    in
    single_specs @ pair_specs
  else
    (* Baseline: one structure per atom / derived predicate. *)
    let singles =
      List.filter_map
        (fun a ->
          if is_monadic a then
            Option.map
              (fun v -> single_comp v (single_spec t v [ a ] []))
              (Var_set.choose_opt (atom_vars a))
          else None)
        atoms
    in
    let derived_singles =
      List.map
        (fun (vm, p) -> single_comp vm (single_spec t vm [] [ (vm, p) ]))
        conj.Plan.derived
    in
    let pairs =
      List.map
        (fun shape ->
          pair_comp shape
            (pair_spec t shape ~probe_atoms:[] ~probe_derived:[]
               ~index_atoms:[] ~index_derived:[] ~mutual:[]))
        shapes
    in
    singles @ derived_singles @ pairs

(* The structure table, derived once.  The schedule holds base single
   lists for the variables the combination phase will actually ask for —
   ALL variables (division divisors) and variables missing from some
   conjunction (padding) — then every conjunction's components, each
   structure once, at its first occurrence. *)
let create ?(batch_size = 2048) ?(use_index = true) db strategy plan =
  let t =
    {
      db;
      strategy;
      plan;
      schemas = var_schemas db plan;
      cache = Hashtbl.create 64;
      specs = Hashtbl.create 64;
      schedule = [];
      comps = [||];
      batch_size = max 1 batch_size;
      batch_pool = Batch.create_pool ();
      use_index;
      access = Hashtbl.create 16;
    }
  in
  let order = Plan.variable_order plan in
  let base_needed v =
    List.exists
      (fun (e : Normalize.prefix_entry) ->
        String.equal e.Normalize.v v && e.Normalize.q = Normalize.Q_all)
      plan.Plan.prefix
    || List.exists
         (fun c -> not (Var_set.mem v (Plan.conj_vars c)))
         plan.Plan.conjs
  in
  let bases = List.map (base_spec t) (List.filter base_needed order) in
  let comps = List.map (conj_comp_specs t order) plan.Plan.conjs in
  let schedule =
    List.filter
      (fun sp ->
        if Hashtbl.mem t.specs sp.sp_key then false
        else begin
          Hashtbl.add t.specs sp.sp_key sp;
          true
        end)
      (bases
      @ List.concat_map
          (List.concat_map (function
            | CS_single { specs; _ } | CS_pair { specs; _ } -> specs))
          comps)
  in
  { t with schedule; comps = Array.of_list comps }

(* ------------------------------------------------------------------ *)
(* Execution *)

(* Record which access path actually built a structure, for the
   per-term report ({!access_paths}) and the run counters. *)
let record_access t (sp : spec) =
  let path = access_label sp.sp_drive in
  Hashtbl.replace t.access sp.sp_key path;
  Obs.Metrics.incr ("collection.access." ^ path)

(* Build one structure alone, driven by its access path: the heap scan
   of its source relation, or the matching enumeration of a secondary
   index (which replaces the counted scan with counted probes — the
   whole point of the index). *)
let build_one t (sp : spec) =
  let span_name, run_build =
    match sp.sp_drive with
    | Drive_scan ->
      ( "scan " ^ sp.sp_rel,
        fun per_tuple ->
          Relation.scan per_tuple (Database.find_relation t.db sp.sp_rel) )
    | Drive_index (idx, op, c) ->
      ( (match op with Value.Eq -> "probe " | _ -> "range ") ^ sp.sp_rel,
        fun per_tuple -> Secondary_index.iter_matching idx op c per_tuple )
  in
  Obs.Trace.with_span
    ~attrs:[ ("structure", Obs.Json.Str sp.sp_key) ]
    span_name
    (fun () ->
      let per_tuple, finish = sp.sp_start t in
      run_build per_tuple;
      Hashtbl.replace t.cache sp.sp_key (finish ()));
  record_access t sp

(* Lazy execution of one spec: recursively ensure dependencies (each
   with its own scan), then build this spec alone. *)
let rec execute_lazy t (sp : spec) =
  if not (Hashtbl.mem t.cache sp.sp_key) then begin
    List.iter
      (fun dep ->
        match Hashtbl.find_opt t.specs dep with
        | Some dsp -> execute_lazy t dsp
        | None ->
          if not (Hashtbl.mem t.cache dep) then
            invalid_arg ("Collection: unknown dependency " ^ dep))
      sp.sp_deps;
    build_one t sp
  end

(* Strategy-1 execution: repeatedly pick the relation with the most
   currently-executable pending structures and build them all in one
   scan.  Dependencies (index before probe, nested value list before its
   user) hold because a structure only becomes executable once its
   dependencies are in the cache. *)
let execute_grouped t specs =
  let pending = ref (List.filter (fun sp -> not (Hashtbl.mem t.cache sp.sp_key)) specs) in
  let executable sp =
    List.for_all (fun d -> Hashtbl.mem t.cache d) sp.sp_deps
  in
  while !pending <> [] do
    let ready = List.filter executable !pending in
    if ready = [] then invalid_arg "Collection: dependency cycle";
    (* Index-served structures never join a grouped scan — sharing the
       heap pass would forfeit exactly the scan the index avoids — so
       each builds individually from its index enumeration first; their
       completion may unblock dependents for the next round. *)
    let idx_ready, ready =
      List.partition
        (fun sp ->
          match sp.sp_drive with Drive_index _ -> true | Drive_scan -> false)
        ready
    in
    if idx_ready <> [] then begin
      List.iter (build_one t) idx_ready;
      let done_keys = List.map (fun sp -> sp.sp_key) idx_ready in
      pending :=
        List.filter (fun sp -> not (List.mem sp.sp_key done_keys)) !pending
    end
    else begin
    (* Group by relation; pick the relation with the most ready specs. *)
    let by_rel = Hashtbl.create 8 in
    List.iter
      (fun sp ->
        let cur = Option.value (Hashtbl.find_opt by_rel sp.sp_rel) ~default:[] in
        Hashtbl.replace by_rel sp.sp_rel (sp :: cur))
      ready;
    let best_rel, best =
      Hashtbl.fold
        (fun rel sps (brel, bsps) ->
          if List.length sps > List.length bsps then (rel, sps) else (brel, bsps))
        by_rel ("", [])
    in
    let rel = Database.find_relation t.db best_rel in
    Obs.Trace.with_span
      ~attrs:
        [
          ( "structures",
            Obs.Json.List
              (List.map (fun sp -> Obs.Json.Str sp.sp_key) best) );
        ]
      ("scan " ^ best_rel)
      (fun () ->
        let started = List.map (fun sp -> (sp, sp.sp_start t)) best in
        let actions = Array.of_list (List.map (fun (_, (f, _)) -> f) started) in
        Relation.scan
          (fun tuple ->
            for i = 0 to Array.length actions - 1 do
              actions.(i) tuple
            done)
          rel;
        List.iter
          (fun (sp, (_, finish)) ->
            Hashtbl.replace t.cache sp.sp_key (finish ()))
          started);
    List.iter (record_access t) best;
    let done_keys = List.map (fun sp -> sp.sp_key) best in
    pending :=
      List.filter (fun sp -> not (List.mem sp.sp_key done_keys)) !pending
    end
  done

(* Run the collection phase.  With strategy 1 every structure is built
   up front in grouped scans; otherwise structures are built lazily, one
   scan each, as the combination phase requests them. *)
let run t = if t.strategy.Strategy.parallel_scan then execute_grouped t t.schedule

let base_list t v =
  let key = base_key v in
  let sp =
    match Hashtbl.find_opt t.specs key with
    | Some sp -> sp
    | None ->
      let sp = base_spec t v in
      Hashtbl.add t.specs key sp;
      sp
  in
  execute_lazy t sp;
  match find_rel t key with
  | Some r -> r
  | None -> invalid_arg "Collection.base_list: missing"

let components t i =
  List.map
    (function
      | CS_single { key; v; specs } -> (
        List.iter (execute_lazy t) specs;
        match find_rel t key with
        | Some r -> C_single (v, r)
        | None -> invalid_arg "Collection.components: missing single")
      | CS_pair { key; v1; v2; specs } -> (
        List.iter (execute_lazy t) specs;
        match find_rel t key with
        | Some r -> C_pair (v1, v2, r)
        | None -> invalid_arg "Collection.components: missing pair"))
    t.comps.(i)

(* Sizes of all materialized intermediate structures, for the
   experiments on intermediate-result growth. *)
let intermediate_sizes t =
  Hashtbl.fold
    (fun key entry acc ->
      let size =
        match entry with
        | E_rel r -> r.Batch.c_rows
        | E_index (Built i) -> Index.entry_count i
        | E_index (Declared (i, _)) -> Secondary_index.entry_count i
        | E_vlist (vl, _) -> Value_list.stored_size vl
      in
      (key, size) :: acc)
    t.cache []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The access path that built each structure, by memo key — what
   [analyze --json] reports per term. *)
let access_paths t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.access []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
