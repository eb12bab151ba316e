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
     rather than the full prefix width. *)

open Relalg
open Calculus

type join_order = Cost_ordered | Declaration

let columns rel = Schema.names (Relation.schema rel)

let rel_of = function
  | Collection.C_single (_, r) -> r
  | Collection.C_pair (_, _, r) -> r

let has_col rel v = Schema.mem (Relation.schema rel) v

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

(* ------------------------------------------------------------------ *)
(* Declaration-order engine (the paper's baseline).                    *)
(* ------------------------------------------------------------------ *)

module Stream = Algebra.Stream

(* One conjunction as a single fused chain over the query's batch pool:
   join its components, greedily preferring components that share a
   variable with the accumulated result so that products are only used
   when the conjunction is genuinely disconnected; pad with the base
   single lists of the variables it does not cover; project to
   [order].  Only the padded n-tuple relation is materialized. *)
let combine_conjunction coll order components =
  let of_rel = Stream.of_relation ~pool:(Collection.batch_pool coll) in
  let shares s comp =
    List.exists (fun c -> Schema.mem (Stream.schema s) c) (columns (rel_of comp))
  in
  let rec go acc remaining =
    match List.partition (shares acc) remaining with
    | c :: others, rest -> go (Stream.natural_join acc (rel_of c)) (others @ rest)
    | [], c :: rest -> go (Stream.natural_join acc (rel_of c)) rest
    | [], [] -> acc
  in
  let joined =
    match components, order with
    | c :: rest, _ -> go (of_rel (rel_of c)) rest
    | [], v :: _ -> of_rel (Collection.base_list coll v)
    | [], [] -> invalid_arg "Combination.combine_conjunction: no variables"
  in
  let padded =
    List.fold_left
      (fun s v ->
        if Schema.mem (Stream.schema s) v then s
        else Stream.product s (Collection.base_list coll v))
      joined order
  in
  Stream.materialize ?par:(Collection.par coll)
    ~batch_size:(Collection.batch_size coll)
    ~name:"refrel" (Stream.project padded order)

(* Eliminate the quantifier prefix right to left over an n-tuple
   relation: projection for SOME, division by the variable's base single
   list for ALL.  Precondition (established by the adaptation pass): all
   prefix ranges are non-empty. *)
let eliminate_quantifiers coll (plan : Plan.t) rel =
  List.fold_left
    (fun acc (e : Normalize.prefix_entry) ->
      let v = e.Normalize.v in
      let remaining = List.filter (fun c -> not (String.equal c v)) (columns acc) in
      Obs.Trace.with_span
        (Fmt.str "eliminate %s %s" (Normalize.quant_to_string e.Normalize.q) v)
        (fun () ->
          let reduced =
            match e.Normalize.q with
            | Normalize.Q_some -> Algebra.project ~name:"refrel" acc remaining
            | Normalize.Q_all ->
              let divisor = Collection.base_list coll v in
              Algebra.divide ~name:"refrel" ~on:[ (v, v) ] acc divisor
          in
          Obs.Trace.add_attr "ntuples"
            (Obs.Json.Int (Relation.cardinality reduced));
          reduced))
    rel
    (List.rev plan.Plan.prefix)

let evaluate_declaration coll (plan : Plan.t) grow =
  let order = Plan.variable_order plan in
  let free_names = List.map fst plan.Plan.free in
  let conj_rels =
    List.mapi
      (fun i conj ->
        Obs.Trace.with_span (Fmt.str "conjunction %d" i) (fun () ->
            let components = Collection.components coll conj in
            let r = combine_conjunction coll order components in
            grow (Relation.cardinality r);
            Obs.Trace.add_attr "ntuples"
              (Obs.Json.Int (Relation.cardinality r));
            r))
      plan.Plan.conjs
  in
  let unioned =
    match conj_rels with
    | [] -> Relation.create ~name:"refrel" (ntuple_schema plan order)
    | [ r ] -> r
    | r :: _ ->
      Obs.Trace.with_span "union" (fun () ->
          Algebra.union_all ~name:"refrel" (Relation.schema r) conj_rels)
  in
  grow (Relation.cardinality unioned);
  let reduced = eliminate_quantifiers coll plan unioned in
  Algebra.project ~name:"refrel" reduced free_names

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

(* Pad [rel] up to the canonical column set [target] with base single
   lists, as one fused product-project-materialize chain. *)
let pad_to coll target rel =
  let cols = columns rel in
  if List.equal String.equal cols target then rel
  else begin
    let missing = List.filter (fun c -> not (List.mem c cols)) target in
    let s =
      List.fold_left
        (fun s v -> Stream.product s (Collection.base_list coll v))
        (Stream.of_relation ~pool:(Collection.batch_pool coll) rel)
        missing
    in
    Stream.materialize
      ?par:(Collection.par coll)
      ~batch_size:(Collection.batch_size coll)
      ~name:"refrel" (Stream.project s target)
  end

(* Combine one conjunction's components in greedy cost order (true
   cardinalities and distinct counts — the inputs are materialized),
   then project the eagerly eliminable variables away in the same
   streaming pass.  Every step sharing a variable with the accumulated
   result is a hash join, recorded under [label] as the algorithm that
   ran.  Returns [None] for a component-less conjunction (constant
   TRUE). *)
let combine_streaming ~label ~record coll (plan : Plan.t) order components =
  match List.map rel_of components with
  | [] -> None
  | rels ->
    let inputs =
      List.map
        (fun r ->
          {
            Cost.ji_card = Relation.cardinality r;
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
              record (Fmt.str "%s.j%d:%s" label step (Relation.name r)) "hash"
            end;
            (step + 1, Stream.natural_join s r))
          (1, Stream.of_relation ~pool:(Collection.batch_pool coll) first)
          rest
        |> snd
      in
      let stream =
        if List.equal String.equal (Schema.names (Stream.schema stream)) out_cols
        then stream
        else Stream.project stream out_cols
      in
      Some
        (Stream.materialize ?par:(Collection.par coll)
           ~batch_size:(Collection.batch_size coll)
           ~name:"refrel" stream)
    end

(* Universal elimination of one Q_all quantifier over its cohort: the
   pad -> union -> divide pipeline executed entirely over interned
   integer columns.  Materializing the padded cohort members and their
   union would cost one deep structural hash per inserted reference
   tuple, tens of thousands of inserts whose only purpose is to feed
   the division.  Instead each cohort member is encoded once (cached in
   the query pool), the padded rows are enumerated as integer rows with
   an odometer over the member x base-list cross product, the division
   groups by integer quotient keys, and only the quotient — typically a
   few rows — is decoded back into a relation.

   Set semantics: interning is injective, so integer-row equality is
   tuple equality within the pool; the union's set semantics fall out
   of the image sets (duplicate (quotient, image) pairs collapse); cover
   checks compare the same sets of values.  Every column is a variable
   of the n-tuple relations, i.e. a reference, so every column is an
   interned one.  Relation scan/insert counters do not move for the
   skipped intermediates (the batch.rows counters do instead);
   max_ntuple grows by the distinct-row count of the virtual union,
   exactly as if it had been materialized. *)
let eliminate_all_batched coll (plan : Plan.t) grow ~v ~common cohort =
  let pool = Collection.batch_pool coll in
  let t0 = Unix.gettimeofday () in
  (* Reference type per common column, from the first cohort member
     carrying it. *)
  let type_of_col c =
    match List.find_opt (fun d -> has_col d c) cohort with
    | Some d -> Schema.type_of (Relation.schema d) c
    | None -> invalid_arg "Combination: cohort column without a source"
  in
  let ref_types = List.map type_of_col common in
  let k = List.length common in
  let vq =
    match List.find_index (String.equal v) common with
    | Some i -> i
    | None -> invalid_arg "Combination: quantified variable not in its cohort"
  in
  (* Per cohort member: sources = the member plus one base list per
     missing column; map each common column to its source's encoded
     column. *)
  let members =
    List.map
      (fun d ->
        let missing = List.filter (fun c -> not (has_col d c)) common in
        let inputs = d :: List.map (Collection.base_list coll) missing in
        let views =
          List.map
            (fun r ->
              (* The whole pipeline here is order-insensitive (groups,
                 image sets, distinct counts), so a member that was
                 materialized by the stream kernels can reuse the
                 insertion-order columns it registered. *)
              let e = Batch.encode_relation_unordered pool r in
              ( Relation.schema r,
                Batch.of_encoded pool e ~off:0 ~len:(Batch.encoded_rows e) ))
            inputs
        in
        let locate c =
          let rec go si = function
            | [] -> invalid_arg "Combination: padded column without a source"
            | (s, view) :: rest ->
              if Schema.mem s c then (si, view.Batch.cols.(Schema.index_of s c))
              else go (si + 1) rest
          in
          go 0 views
        in
        let mapping = Array.of_list (List.map locate common) in
        let dims =
          Array.of_list (List.map (fun (_, b) -> b.Batch.nrows) views)
        in
        (mapping, dims))
      cohort
  in
  let divisor_rel = Collection.base_list coll v in
  let divisor_view =
    let e = Batch.encode_relation pool divisor_rel in
    Batch.of_encoded pool e ~off:0 ~len:(Batch.encoded_rows e)
  in
  let divisor_col =
    divisor_view.Batch.cols.(Schema.index_of (Relation.schema divisor_rel) v)
  in
  let divisor_set = Hashtbl.create 64 in
  for r = 0 to divisor_view.Batch.nrows - 1 do
    Hashtbl.replace divisor_set (Batch.cell divisor_col r) ()
  done;
  let needed = Hashtbl.length divisor_set in
  (* Group the virtual union by quotient key, collecting the image
     set of v per group; count distinct rows for the max_ntuple
     accounting. *)
  let groups : (int, unit) Hashtbl.t Batch.Ikey.t =
    Batch.Ikey.create 256
  in
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
  (match cohort with
  | [ d ] when List.equal String.equal (columns d) common -> ()
  | _ -> Obs.Metrics.incr "algebra.materialized.union");
  grow !dividend_card;
  let result =
    if k = 1 then begin
      (* Boolean degeneration: does the cohort's v set cover the
         whole range?  (Vacuously yes over an empty divisor.) *)
      let images =
        match Batch.Ikey.find_opt groups [||] with
        | Some set -> set
        | None -> Hashtbl.create 1
      in
      let covered =
        Hashtbl.length images >= needed
        && Hashtbl.fold
             (fun d () acc -> acc && Hashtbl.mem images d)
             divisor_set true
      in
      if covered then [ true_disjunct coll plan ] else []
    end
    else begin
      Obs.Metrics.incr "algebra.materialized.divide";
      let quotient_names = List.filter (fun c -> not (String.equal c v)) common in
      let dividend_schema =
        Schema.make
          (List.map2 (fun c ty -> Schema.attr c ty) common ref_types)
          ~key:[]
      in
      let out =
        Relation.create ~name:"refrel"
          (Schema.project dividend_schema quotient_names)
      in
      let decode_insert qkey =
        Relation.insert out (Array.map (Batch.value pool) qkey)
      in
      Batch.Ikey.iter
        (fun qkey images ->
          let covers =
            needed = 0
            || Hashtbl.length images >= needed
               && Hashtbl.fold
                    (fun d () acc -> acc && Hashtbl.mem images d)
                    divisor_set true
          in
          if covers then decode_insert qkey)
        groups;
      [ out ]
    end
  in
  let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  Obs.Metrics.incr ~by:!rows_in "algebra.batch.rows_in";
  Obs.Metrics.incr
    ~by:(match result with [ r ] -> Relation.cardinality r | _ -> 0)
    "algebra.batch.rows_out";
  Obs.Metrics.incr ~by:ns "algebra.batch.kernel_ns";
  result

(* Disjunct-wise right-to-left quantifier elimination over the LIST of
   conjunction relations (heterogeneous column sets); see the header
   comment for the two distribution identities this rests on. *)
let eliminate_streaming coll (plan : Plan.t) grow disjuncts =
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
                      if Relation.is_empty d then None
                      else Some (true_disjunct coll plan)
                    else Some (Algebra.project ~name:"refrel" d remaining))
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
                eliminate_all_batched coll plan grow ~v ~common cohort @ others)
          in
          let total =
            List.fold_left (fun n d -> n + Relation.cardinality d) 0 reduced
          in
          Obs.Trace.add_attr "ntuples" (Obs.Json.Int total);
          reduced))
    disjuncts
    (List.rev plan.Plan.prefix)

let evaluate_streaming ~record coll (plan : Plan.t) grow =
  let order = Plan.variable_order plan in
  let free_names = List.map fst plan.Plan.free in
  let disjuncts =
    List.mapi
      (fun i conj ->
        Obs.Trace.with_span (Fmt.str "conjunction %d" i) (fun () ->
            let components = Collection.components coll conj in
            let r =
              match
                combine_streaming
                  ~label:(Fmt.str "conj%d" i)
                  ~record coll plan order components
              with
              | Some r -> r
              | None -> true_disjunct coll plan
            in
            grow (Relation.cardinality r);
            Obs.Trace.add_attr "ntuples"
              (Obs.Json.Int (Relation.cardinality r));
            r))
      plan.Plan.conjs
  in
  let reduced = eliminate_streaming coll plan grow disjuncts in
  match reduced with
  | [] -> Relation.create ~name:"refrel" (ntuple_schema plan free_names)
  | [ d ] when List.equal String.equal (columns d) free_names -> d
  | ds ->
    Obs.Trace.with_span "union" (fun () ->
        match List.map (pad_to coll free_names) ds with
        | [ d ] -> d
        | padded ->
          let u =
            Algebra.union_all ~name:"refrel"
              (Relation.schema (List.hd padded))
              padded
          in
          grow (Relation.cardinality u);
          u)

(* ------------------------------------------------------------------ *)

(* Full combination phase.  Returns the reference relation over the
   free variables (declaration order), the cardinality of the largest
   n-tuple relation built on the way — the combinatorial-growth metric
   of the experiments — and the join algorithm run per streaming join
   step (empty under the Declaration engine, whose joins are the
   literal baseline). *)
type outcome = {
  o_result : Relation.t;
  o_max_ntuple : int;
  o_join_algos : (string * string) list;
}

let evaluate_outcome ?(join_order = Cost_ordered) coll (plan : Plan.t) =
  let max_ntuple = ref 0 in
  let grow n =
    max_ntuple := max !max_ntuple n;
    Obs.Metrics.gauge_max "combination.max_ntuple" (float_of_int !max_ntuple)
  in
  let joins = ref [] in
  let record step algo = joins := (step, algo) :: !joins in
  let result =
    match join_order with
    | Cost_ordered -> evaluate_streaming ~record coll plan grow
    | Declaration -> evaluate_declaration coll plan grow
  in
  {
    o_result = result;
    o_max_ntuple = !max_ntuple;
    o_join_algos = List.rev !joins;
  }

let evaluate ?join_order coll plan = (evaluate_outcome ?join_order coll plan).o_result
