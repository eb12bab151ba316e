(* The COMBINATION PHASE (paper Section 3.3): manipulate only reference
   relations; evaluate logical operators and quantifiers in three steps:

   1. each conjunction is combined from its single lists and indirect
      joins into n-tuples of references (joins and Cartesian products);
   2. the full disjunctive form is evaluated by a union of those
      n-tuple relations;
   3. quantifiers are evaluated from right to left — projection for
      existential quantification, division for universal quantification
      (Codd / Palermo).

   Two engines implement the phase:

   - [Declaration]: the paper's literal reading — pad every conjunction
     with base single lists up to the full variable order, union, then
     eliminate the prefix over the padded n-tuple relation.  Kept as
     the comparison baseline (B-ORDER) and differential-test oracle.

   - [Cost_ordered] (default): a streaming engine that joins each
     conjunction's components in greedy cost order (true cardinalities
     are available — the inputs are materialized), projects
     existentially quantified variables away eagerly inside the
     combine, and eliminates the prefix DISJUNCT-WISE, never
     materializing the full padded union:

       ∃v:  projection distributes over union, so project [v] out of
            exactly the disjuncts that carry it; a disjunct without [v]
            is untouched (∃v P ≡ P over a non-empty range).
       ∀v:  ∀v (P ∨ Q(v)) ≡ P ∨ ∀v Q(v) for a non-empty range, so only
            the disjuncts carrying [v] are padded to their common
            column set, unioned, and divided; the rest pass through.

     Both identities need non-empty prefix ranges, which
     {!Standard_form.adapt_query} guarantees (empty-range quantifiers
     are rewritten away before planning).  Free-variable padding
     happens last, just before the final union, so a variable that is
     only padded and then projected away is never joined at all.
     max_ntuple is thereby bounded by the live-variable frontier
     rather than the full prefix width.

   Both engines use one operator set: joins, products and projections
   are {!Algebra.Stream} chains, a union is one materialization fed by
   several chains, and ALL is the columnar {!divide_columns}.  Every
   relation of the phase is int columns of the query's tuple-table
   ordinals ({!Batch.columns}): the collection phase's structures go in
   as they are, and the result goes to construction as it is. *)

open Relalg
open Calculus

type join_order = Cost_ordered | Declaration

let columns (c : Batch.columns) = Schema.names c.Batch.c_schema
let card (c : Batch.columns) = c.Batch.c_rows

let rel_of = function
  | Collection.C_single (_, r) -> r
  | Collection.C_pair (_, _, r) -> r

let has_col (c : Batch.columns) v = Schema.mem c.Batch.c_schema v

(* Schema of the n-tuple reference relations over [order]. *)
let ntuple_schema (plan : Plan.t) order =
  Schema.make
    (List.map
       (fun v ->
         match Plan.range_of plan v with
         | Some r -> Schema.attr v (Vtype.reference r.range_rel)
         | None -> invalid_arg "Combination: variable without range")
       order)
    ~key:[]

module Stream = Algebra.Stream

let of_rel coll = Stream.of_columns (Collection.batch_pool coll)

(* Every combination-phase relation is one materialization of one or
   more chains over the query's batch pool: several chains are unioned
   into the one whole-row-deduplicated output. *)
let materialize ~par coll chains =
  Stream.run ?par ~batch_size:(Collection.batch_size coll) ~name:"refrel"
    chains

(* The relation of [schema] holding the given integer rows. *)
let of_rows schema rows =
  let acc = Batch.acc_create ~name:"refrel" schema in
  List.iter (Array.iteri (Batch.acc_push_cell acc)) rows;
  Batch.acc_finish acc

(* Projection for SOME as a one-stage chain. *)
let project ~par coll rel names =
  materialize ~par coll [ Stream.project (of_rel coll rel) names ]

(* ------------------------------------------------------------------ *)
(* Columnar division.                                                  *)
(* ------------------------------------------------------------------ *)

(* The division kernel both engines share: the pad -> union -> divide
   pipeline of one ALL elimination executed over integer columns.  Each
   dividend member is given as its sources — the member, then one base
   list per column it lacks — whose cross product, read through the
   columns named [common], is the member's padded rows.  Materializing
   the padded members and their union would build tens of thousands of
   rows whose only purpose is to feed the division.  Instead the padded
   rows are enumerated as integer rows with an odometer over the
   sources' columns, and the division groups by integer quotient keys.

   Set semantics: ordinals (and interned values) are injective, so
   integer-row equality is tuple equality within the pool; the union's
   set semantics fall out of the image sets (duplicate (quotient, image)
   pairs collapse); cover checks compare the same sets of values.

   Returns the covering quotient keys (integer rows over [common]
   without [v], in Ikey iteration order) and the distinct-row count of
   the virtual union.  With [v] the only column, the one quotient is the
   empty key, present iff the union's v set covers the divisor. *)
let divide_columns ~v ~common members divisor =
  let t0 = Unix.gettimeofday () in
  let k = List.length common in
  let vq =
    match List.find_index (String.equal v) common with
    | Some i -> i
    | None -> invalid_arg "Combination: quantified variable not in its dividend"
  in
  let members =
    List.map
      (fun sources ->
        let locate c =
          let rec go si = function
            | [] -> invalid_arg "Combination: padded column without a source"
            | (s : Batch.columns) :: rest ->
              if has_col s c then
                (si, s.Batch.c_cols.(Schema.index_of s.Batch.c_schema c))
              else go (si + 1) rest
          in
          go 0 sources
        in
        let mapping = Array.of_list (List.map locate common) in
        (mapping, Array.of_list (List.map card sources)))
      members
  in
  let divisor_col =
    divisor.Batch.c_cols.(Schema.index_of divisor.Batch.c_schema v)
  in
  let divisor_set = Hashtbl.create 64 in
  for r = 0 to divisor.Batch.c_rows - 1 do
    Hashtbl.replace divisor_set (Batch.cell divisor_col r) ()
  done;
  let needed = Hashtbl.length divisor_set in
  (* Group the virtual union by quotient key, collecting the image
     set of v per group; count distinct rows for the max_ntuple
     accounting. *)
  let groups : (int, unit) Hashtbl.t Batch.Ikey.t =
    Batch.Ikey.create 256
  in
  if k = 1 then Batch.Ikey.replace groups [||] (Hashtbl.create 8);
  let dividend_card = ref 0 in
  let rows_in = ref 0 in
  List.iter
    (fun (mapping, dims) ->
      let nsrc = Array.length dims in
      let total = Array.fold_left ( * ) 1 dims in
      if total > 0 then begin
        rows_in := !rows_in + total;
        (* Quotient-ordered (source, column) pairs and a reusable key
           buffer: the loop below allocates only when a new quotient
           group first appears (the key is copied on insert), and the
           image-set membership test rides the single [replace]'s
           length delta instead of a separate [mem]. *)
        let qmap =
          Array.init (k - 1) (fun j -> mapping.(if j < vq then j else j + 1))
        in
        let vsi, vcol = mapping.(vq) in
        let qkey = Array.make (k - 1) 0 in
        let idx = Array.make nsrc 0 in
        let live = ref true in
        let rec bump i =
          if i < 0 then live := false
          else begin
            idx.(i) <- idx.(i) + 1;
            if idx.(i) = dims.(i) then begin
              idx.(i) <- 0;
              bump (i - 1)
            end
          end
        in
        while !live do
          for j = 0 to k - 2 do
            let si, col = qmap.(j) in
            qkey.(j) <- Batch.cell col idx.(si)
          done;
          let img = Batch.cell vcol idx.(vsi) in
          let images =
            match Batch.Ikey.find_opt groups qkey with
            | Some set -> set
            | None ->
              let set = Hashtbl.create 8 in
              Batch.Ikey.replace groups (Array.copy qkey) set;
              set
          in
          let before = Hashtbl.length images in
          Hashtbl.replace images img ();
          if Hashtbl.length images <> before then incr dividend_card;
          bump (nsrc - 1)
        done
      end)
    members;
  (* An empty divisor is covered by every group: ALL over the empty
     range holds vacuously. *)
  let covers images =
    Hashtbl.length images >= needed
    && Hashtbl.fold (fun d () acc -> acc && Hashtbl.mem images d) divisor_set true
  in
  let keys =
    List.rev
      (Batch.Ikey.fold
         (fun q images acc -> if covers images then q :: acc else acc)
         groups [])
  in
  if k > 1 then Obs.Metrics.incr "algebra.materialized.divide";
  let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  Obs.Metrics.incr ~by:!rows_in "algebra.batch.rows_in";
  Obs.Metrics.incr ~by:(List.length keys) "algebra.batch.rows_out";
  Obs.Metrics.incr ~by:ns "algebra.batch.kernel_ns";
  (keys, !dividend_card)

(* The relation-level division: both inputs encoded once into a fresh
   pool, the quotient decoded. *)
let divide ~v r divisor =
  let quotient_names =
    List.filter (fun c -> not (String.equal c v)) (Schema.names (Relation.schema r))
  in
  if quotient_names = [] then
    Errors.schema_error "divide: no quotient attributes remain";
  let ty rel = Schema.type_of (Relation.schema rel) v in
  if Batch.cls_of_type (ty r) <> Batch.cls_of_type (ty divisor) then
    Errors.type_error "divide on %s: cannot compare %a with %a" v Vtype.pp
      (ty r) Vtype.pp (ty divisor);
  let pool = Batch.create_pool () in
  let r = Batch.of_relation pool r in
  let keys, _ =
    divide_columns ~v ~common:(columns r) [ [ r ] ]
      (Batch.of_relation pool divisor)
  in
  Batch.to_relation pool
    (of_rows (Schema.project r.Batch.c_schema quotient_names) keys)

(* ------------------------------------------------------------------ *)
(* Declaration-order engine (the paper's baseline).                    *)
(* ------------------------------------------------------------------ *)

(* One conjunction as a single fused chain over the query's batch pool:
   join its components, greedily preferring components that share a
   variable with the accumulated result so that products are only used
   when the conjunction is genuinely disconnected; pad with the base
   single lists of the variables it does not cover; project to
   [order]. *)
let combine_conjunction coll order components =
  let shares s comp =
    List.exists (fun c -> Schema.mem (Stream.schema s) c) (columns (rel_of comp))
  in
  let rec go acc remaining =
    match List.partition (shares acc) remaining with
    | c :: others, rest -> go (Stream.join acc (rel_of c)) (others @ rest)
    | [], c :: rest -> go (Stream.join acc (rel_of c)) rest
    | [], [] -> acc
  in
  let joined =
    match components, order with
    | c :: rest, _ -> go (of_rel coll (rel_of c)) rest
    | [], v :: _ -> of_rel coll (Collection.base_list coll v)
    | [], [] -> invalid_arg "Combination.combine_conjunction: no variables"
  in
  let padded =
    List.fold_left
      (fun s v ->
        if Schema.mem (Stream.schema s) v then s
        else Stream.cross s (Collection.base_list coll v))
      joined order
  in
  Stream.project padded order

(* Eliminate the quantifier prefix right to left over an n-tuple
   relation: projection for SOME, the columnar division by the
   variable's base single list for ALL (a dividend of one member).
   Precondition (established by the adaptation pass): all prefix
   ranges are non-empty. *)
let eliminate_quantifiers ~par coll (plan : Plan.t) rel =
  List.fold_left
    (fun acc (e : Normalize.prefix_entry) ->
      let v = e.Normalize.v in
      let remaining = List.filter (fun c -> not (String.equal c v)) (columns acc) in
      Obs.Trace.with_span
        (Fmt.str "eliminate %s %s" (Normalize.quant_to_string e.Normalize.q) v)
        (fun () ->
          let reduced =
            match e.Normalize.q with
            | Normalize.Q_some -> project ~par coll acc remaining
            | Normalize.Q_all ->
              let keys, _ =
                divide_columns ~v ~common:(columns acc) [ [ acc ] ]
                  (Collection.base_list coll v)
              in
              of_rows (Schema.project acc.Batch.c_schema remaining) keys
          in
          Obs.Trace.add_attr "ntuples" (Obs.Json.Int (card reduced));
          reduced))
    rel
    (List.rev plan.Plan.prefix)

(* Pad every conjunction to the full variable order and union them in
   one materialization, then eliminate right to left. *)
let evaluate_declaration ~par coll (plan : Plan.t) grow =
  let order = Plan.variable_order plan in
  let chains =
    List.mapi
      (fun i conj ->
        Obs.Trace.with_span (Fmt.str "conjunction %d" i) (fun () ->
            combine_conjunction coll order (Collection.components coll conj)))
      plan.Plan.conjs
  in
  let unioned =
    match chains with
    | [] -> of_rows (ntuple_schema plan order) []
    | _ ->
      Obs.Trace.with_span "union" (fun () ->
          let u = materialize ~par coll chains in
          Obs.Trace.add_attr "ntuples" (Obs.Json.Int (card u));
          u)
  in
  grow (card unioned);
  (* Eliminating the prefix from [order] = free @ prefix leaves exactly
     the free variables, in declaration order. *)
  eliminate_quantifiers ~par coll plan unioned

(* ------------------------------------------------------------------ *)
(* Streaming cost-ordered engine (default).                            *)
(* ------------------------------------------------------------------ *)

(* Filter [order] down to [cols]: every disjunct keeps its columns in
   the one canonical order (free variables first, then the prefix), so
   unions of disjuncts line up without per-union reshuffling. *)
let canonical order cols = List.filter (fun v -> List.mem v cols) order

(* A disjunct that has been reduced to a constant TRUE (e.g. a
   conjunction whose every variable was existentially projected away,
   over a non-empty witness): represented by the first free variable's
   base list, which the final padding extends to the full free product.
   If that range is empty the whole query answer is empty, so the
   representation stays faithful. *)
let true_disjunct coll (plan : Plan.t) =
  Collection.base_list coll (fst (List.hd plan.Plan.free))

(* The conjunction's SOME variables that may be projected away inside
   its own combine.  Walking the prefix innermost-first: a SOME
   variable of the conjunction is eagerly projectable unless an ALL
   variable of the SAME conjunction sits strictly inside it — the
   division at that inner ALL step merges this disjunct into a cohort
   whose quotient must still carry the outer variable.  ALL variables
   the conjunction does not mention never block: that elimination step
   passes the disjunct through untouched. *)
let eager_vars (plan : Plan.t) cols =
  let in_conj v = List.mem v cols in
  let eager, _ =
    List.fold_left
      (fun (eager, blocked) (e : Normalize.prefix_entry) ->
        match e.Normalize.q with
        | Normalize.Q_all when in_conj e.Normalize.v -> (eager, true)
        | Normalize.Q_some when in_conj e.Normalize.v && not blocked ->
          (e.Normalize.v :: eager, blocked)
        | _ -> (eager, blocked))
      ([], false)
      (List.rev plan.Plan.prefix)
  in
  eager

(* [rel] padded up to the canonical column set [target] with base
   single lists, as a product-project chain. *)
let pad_chain coll target rel =
  let cols = columns rel in
  let s =
    List.fold_left
      (fun s v ->
        if List.mem v cols then s
        else Stream.cross s (Collection.base_list coll v))
      (of_rel coll rel) target
  in
  if List.equal String.equal cols target then s else Stream.project s target

(* Combine one conjunction's components in greedy cost order (true
   cardinalities and distinct counts — the inputs are materialized),
   then project the eagerly eliminable variables away in the same
   streaming pass.  Every step sharing a variable with the accumulated
   result is a hash join, recorded under [label] as the algorithm that
   ran.  Returns [None] for a component-less conjunction (constant
   TRUE). *)
let combine_streaming ~par ~label ~record coll (plan : Plan.t) order components =
  match List.map rel_of components with
  | [] -> None
  | rels ->
    let inputs =
      List.map
        (fun r ->
          {
            Cost.ji_card = card r;
            ji_cols = columns r;
            ji_distinct = Stats.column_distincts r;
          })
        rels
    in
    let arr = Array.of_list rels in
    let ordered = List.map (fun i -> arr.(i)) (Cost.greedy_join_order inputs) in
    let first = List.hd ordered and rest = List.tl ordered in
    let cols =
      List.fold_left
        (fun acc r -> acc @ List.filter (fun c -> not (List.mem c acc)) (columns r))
        (columns first) rest
    in
    let eager = eager_vars plan cols in
    let keep = List.filter (fun c -> not (List.mem c eager)) cols in
    (* Never project down to zero columns; keep one and let the normal
       elimination step reduce it. *)
    let out_cols =
      if keep = [] then [ List.hd (canonical order cols) ]
      else canonical order keep
    in
    if rest = [] && List.equal String.equal (columns first) out_cols then
      Some first (* already in shape: share the collection structure *)
    else begin
      let stream =
        List.fold_left
          (fun (step, s) r ->
            if List.exists (fun c -> Schema.mem (Stream.schema s) c) (columns r)
            then begin
              Obs.Metrics.incr "combination.join.hash";
              record (Fmt.str "%s.j%d:%s" label step r.Batch.c_name) "hash"
            end;
            (step + 1, Stream.join s r))
          (1, of_rel coll first)
          rest
        |> snd
      in
      let stream =
        if List.equal String.equal (Schema.names (Stream.schema stream)) out_cols
        then stream
        else Stream.project stream out_cols
      in
      Some (materialize ~par coll [ stream ])
    end

(* Universal elimination of one Q_all quantifier over its cohort (the
   disjuncts carrying [v]): each member padded to the cohort's common
   columns, unioned and divided by [v]'s base list — all inside the
   columnar divide, which pads through its odometer instead of
   materializing.  max_ntuple grows by the distinct-row count of the
   virtual union, exactly as if it had been materialized.  With [v] the
   only common column the quotient is a boolean: the constant TRUE
   disjunct or nothing. *)
let eliminate_all coll (plan : Plan.t) grow ~v ~common cohort =
  (match cohort with
  | [ d ] when List.equal String.equal (columns d) common -> ()
  | _ -> Obs.Metrics.incr "algebra.materialized.union");
  let members =
    List.map
      (fun d ->
        d
        :: List.filter_map
             (fun c ->
               if has_col d c then None else Some (Collection.base_list coll c))
             common)
      cohort
  in
  let keys, card =
    divide_columns ~v ~common members (Collection.base_list coll v)
  in
  grow card;
  match List.filter (fun c -> not (String.equal c v)) common with
  | [] -> if keys = [] then [] else [ true_disjunct coll plan ]
  | quotient_names ->
    (* Reference type per quotient column, from the first cohort member
       carrying it. *)
    let attr c =
      match List.find_opt (fun d -> has_col d c) cohort with
      | Some d -> Schema.attr c (Schema.type_of d.Batch.c_schema c)
      | None -> invalid_arg "Combination: cohort column without a source"
    in
    [ of_rows (Schema.make (List.map attr quotient_names) ~key:[]) keys ]

(* Disjunct-wise right-to-left quantifier elimination over the LIST of
   conjunction relations (heterogeneous column sets); see the header
   comment for the two distribution identities this rests on. *)
let eliminate_streaming ~par coll (plan : Plan.t) grow disjuncts =
  let order = Plan.variable_order plan in
  List.fold_left
    (fun djs (e : Normalize.prefix_entry) ->
      let v = e.Normalize.v in
      Obs.Trace.with_span
        (Fmt.str "eliminate %s %s" (Normalize.quant_to_string e.Normalize.q) v)
        (fun () ->
          let reduced =
            match e.Normalize.q with
            | Normalize.Q_some ->
              List.filter_map
                (fun d ->
                  if not (has_col d v) then Some d
                  else
                    let remaining =
                      List.filter
                        (fun c -> not (String.equal c v))
                        (columns d)
                    in
                    if remaining = [] then
                      (* ∃v over a one-column disjunct is a boolean *)
                      if card d = 0 then None
                      else Some (true_disjunct coll plan)
                    else Some (project ~par coll d remaining))
                djs
            | Normalize.Q_all -> (
              let cohort, others = List.partition (fun d -> has_col d v) djs in
              match cohort with
              | [] -> djs (* no disjunct constrains v: ∀v is vacuous *)
              | _ ->
                let common =
                  canonical order
                    (List.sort_uniq String.compare
                       (List.concat_map columns cohort))
                in
                eliminate_all coll plan grow ~v ~common cohort @ others)
          in
          let total =
            List.fold_left (fun n d -> n + card d) 0 reduced
          in
          Obs.Trace.add_attr "ntuples" (Obs.Json.Int total);
          reduced))
    disjuncts
    (List.rev plan.Plan.prefix)

let evaluate_streaming ~par ~record coll (plan : Plan.t) grow =
  let order = Plan.variable_order plan in
  let free_names = List.map fst plan.Plan.free in
  let disjuncts =
    List.mapi
      (fun i conj ->
        Obs.Trace.with_span (Fmt.str "conjunction %d" i) (fun () ->
            let components = Collection.components coll conj in
            let r =
              match
                combine_streaming ~par
                  ~label:(Fmt.str "conj%d" i)
                  ~record coll plan order components
              with
              | Some r -> r
              | None -> true_disjunct coll plan
            in
            grow (card r);
            Obs.Trace.add_attr "ntuples" (Obs.Json.Int (card r));
            r))
      plan.Plan.conjs
  in
  let reduced = eliminate_streaming ~par coll plan grow disjuncts in
  match reduced with
  | [] -> of_rows (ntuple_schema plan free_names) []
  | [ d ] when List.equal String.equal (columns d) free_names -> d
  | ds ->
    (* Free-variable padding happens here, inside the union's one
       materialization; a lone padded disjunct is no union. *)
    Obs.Trace.with_span "union" (fun () ->
        let u = materialize ~par coll (List.map (pad_chain coll free_names) ds) in
        if List.compare_length_with ds 1 > 0 then grow (card u);
        u)

(* ------------------------------------------------------------------ *)

(* Full combination phase.  Returns the reference relation over the
   free variables (declaration order), the cardinality of the largest
   n-tuple relation built on the way — the combinatorial-growth metric
   of the experiments — and the join algorithm run per streaming join
   step (empty under the Declaration engine, whose joins are the
   literal baseline). *)
type outcome = {
  o_result : Batch.columns;
  o_max_ntuple : int;
  o_join_algos : (string * string) list;
}

let evaluate ?par ?(join_order = Cost_ordered) coll (plan : Plan.t) =
  let max_ntuple = ref 0 in
  let grow n =
    max_ntuple := max !max_ntuple n;
    Obs.Metrics.gauge_max "combination.max_ntuple" (float_of_int !max_ntuple)
  in
  let joins = ref [] in
  let record step algo = joins := (step, algo) :: !joins in
  let result =
    match join_order with
    | Cost_ordered -> evaluate_streaming ~par ~record coll plan grow
    | Declaration -> evaluate_declaration ~par coll plan grow
  in
  {
    o_result = result;
    o_max_ntuple = !max_ntuple;
    o_join_algos = List.rev !joins;
  }
