(* Semi-join programs from the predicate-calculus point of view (paper
   Sections 4.4 and 5).

   Strategy 4 is "a general first-order predicate calculus"
   interpretation of the semi-join techniques of Bernstein/Chiu [2] and
   SDD-1 [3].  This module makes the connection explicit for conjunctive
   equality queries:

   - the QUERY GRAPH has the query's variables as nodes and its equality
     dyadic join terms as edges;
   - for TREE queries, a FULL REDUCER — a bottom-up then top-down
     sequence of semijoins — removes every tuple that cannot participate
     in any satisfying assignment (Bernstein/Chiu's theorem);
   - for CYCLIC queries, iterating semijoins to a fixpoint still yields
     a (not necessarily full) reduction;
   - universal quantification extends the repertoire: ALL vn with a
     dyadic <> term is the ANTIJOIN reduction, and ALL vn with = is the
     at-most-one-value test — the paper's Section 4.4 special cases. *)

open Relalg
open Calculus

type edge = { ev1 : var; ea1 : string; ev2 : var; ea2 : string }

type graph = { g_nodes : var list; g_edges : edge list }

let pp_edge ppf e =
  Fmt.pf ppf "%s.%s = %s.%s" e.ev1 e.ea1 e.ev2 e.ea2

let pp_graph ppf g =
  Fmt.pf ppf "nodes {%a} edges {%a}"
    (Fmt.list ~sep:Fmt.comma Fmt.string)
    g.g_nodes
    (Fmt.list ~sep:Fmt.semi pp_edge)
    g.g_edges

(* Build the query graph of a conjunction.  Only equality dyadic terms
   become edges; any other dyadic term makes the conjunction fall
   outside the Bernstein/Chiu class ([None]).  Monadic terms are
   selections, handled separately. *)
let graph_of_conjunction vars (conj : Normalize.conjunction) =
  let edges =
    List.fold_left
      (fun acc a ->
        match acc with
        | None -> None
        | Some edges ->
          if is_monadic a then Some edges
          else (
            match a.lhs, a.op, a.rhs with
            | O_attr (v1, a1), Value.Eq, O_attr (v2, a2) ->
              Some ({ ev1 = v1; ea1 = a1; ev2 = v2; ea2 = a2 } :: edges)
            | _ -> None))
      (Some []) conj
  in
  Option.map (fun g_edges -> { g_nodes = vars; g_edges = List.rev g_edges }) edges

(* Acyclicity of the (multi-)graph via union-find: a repeated edge inside
   one component is a cycle. *)
let is_acyclic g =
  let parent = Hashtbl.create 8 in
  let rec find v =
    match Hashtbl.find_opt parent v with
    | None -> v
    | Some p ->
      let root = find p in
      Hashtbl.replace parent v root;
      root
  in
  let union a b =
    let ra = find a and rb = find b in
    if String.equal ra rb then false
    else begin
      Hashtbl.replace parent ra rb;
      true
    end
  in
  List.for_all (fun e -> union e.ev1 e.ev2) g.g_edges

let is_connected g =
  match g.g_nodes with
  | [] -> true
  | root :: _ ->
    let adj v =
      List.filter_map
        (fun e ->
          if String.equal e.ev1 v then Some e.ev2
          else if String.equal e.ev2 v then Some e.ev1
          else None)
        g.g_edges
    in
    let visited = Hashtbl.create 8 in
    let rec dfs v =
      if not (Hashtbl.mem visited v) then begin
        Hashtbl.replace visited v ();
        List.iter dfs (adj v)
      end
    in
    dfs root;
    List.for_all (Hashtbl.mem visited) g.g_nodes

let is_tree g = is_acyclic g && is_connected g

(* One semijoin program step: reduce [target] to the elements matching
   some element of [source] through [edge]. *)
type step = { st_target : var; st_source : var; st_edge : edge }

let pp_step ppf s =
  Fmt.pf ppf "%s := %s SEMIJOIN %s ON %a" s.st_target s.st_target s.st_source
    pp_edge s.st_edge

(* Full-reducer schedule for an acyclic graph rooted at [root]: a
   bottom-up pass (leaves towards the root) followed by the mirrored
   top-down pass (Bernstein/Chiu). *)
let full_reducer_schedule g ~root =
  let adj v =
    List.filter_map
      (fun e ->
        if String.equal e.ev1 v then Some (e.ev2, e)
        else if String.equal e.ev2 v then Some (e.ev1, e)
        else None)
      g.g_edges
  in
  let visited = Hashtbl.create 8 in
  let bottom_up = ref [] in
  let top_down = ref [] in
  let rec dfs v =
    Hashtbl.replace visited v ();
    List.iter
      (fun (child, edge) ->
        if not (Hashtbl.mem visited child) then begin
          dfs child;
          (* after the subtree: child reduces its parent *)
          bottom_up := { st_target = v; st_source = child; st_edge = edge } :: !bottom_up;
          (* on the way down: parent reduces the child *)
          top_down := { st_target = child; st_source = v; st_edge = edge } :: !top_down
        end)
      (adj v)
  in
  dfs root;
  List.rev !bottom_up @ !top_down

(* Attribute pair of a step, oriented (target attr, source attr). *)
let step_on s =
  if String.equal s.st_edge.ev1 s.st_target then
    (s.st_edge.ea1, s.st_edge.ea2)
  else (s.st_edge.ea2, s.st_edge.ea1)

type reduction = {
  red_vars : (var * Relation.t) list;  (* reduced relation per variable *)
  red_steps : step list;
  red_before : (var * int) list;
  red_after : (var * int) list;
}

(* Initial relation of a variable: its (restricted) range with the
   conjunction's monadic terms applied — the collection phase's data
   reduction. *)
let initial_relation db (range : range) monadic v =
  let rel = Database.find_relation db range.range_rel in
  let schema = Relation.schema rel in
  let keep tuple =
    (match range.restriction with
    | None -> true
    | Some (rv, f) ->
      Naive_eval.holds db
        (Var_map.add rv { Naive_eval.tuple; schema } Var_map.empty)
        f)
    && List.for_all
         (fun a ->
           let value = function
             | O_const c -> c
             | O_attr (_, at) -> Tuple.get_by_name schema tuple at
             | O_param p -> invalid_arg ("Semijoin: unbound parameter $" ^ p)
           in
           Value.apply a.op (value a.lhs) (value a.rhs))
         monadic
  in
  let out = Relation.create ~name:("red_" ^ v) schema in
  Relation.scan (fun t -> if keep t then Relation.insert out t) rel;
  out

(* Every reducer is one filter over a value list of the inner relation's
   column: keep the elements x of [outer] with
   (quant y IN inner) (x.outer_attr op y.inner_attr).  The value list is
   built by one counted scan of [inner], the filter by one of [outer]. *)
let filter_by ~name ~storage ~quant op ~outer_attr ~inner_attr outer inner =
  let vl = Value_list.of_column ~storage inner inner_attr in
  let holds =
    Value_list.tester ~quant op vl
      ~pos:(Schema.index_of (Relation.schema outer) outer_attr)
  in
  let out = Relation.create ~name (Relation.schema outer) in
  Relation.scan (fun t -> if holds t then Relation.insert out t) outer;
  out

(* Reduce [outer] to the elements x with SOME y IN inner (x.oa = y.ia):
   the semijoin. *)
let some_eq_reduce ?(name = "some_eq") ~outer_attr ~inner_attr outer inner =
  filter_by ~name ~storage:Value_list.Full ~quant:Value_list.Q_some Value.Eq
    ~outer_attr ~inner_attr outer inner

let run_steps rels steps =
  List.fold_left
    (fun rels s ->
      let target = List.assoc s.st_target rels in
      let source = List.assoc s.st_source rels in
      let ta, sa = step_on s in
      let reduced =
        some_eq_reduce ~name:("red_" ^ s.st_target) ~outer_attr:ta
          ~inner_attr:sa target source
      in
      (s.st_target, reduced) :: List.remove_assoc s.st_target rels)
    rels steps

(* Reduce a conjunctive equality query.  For acyclic graphs this is the
   Bernstein/Chiu full reducer; cyclic graphs fall back to iterating all
   edges' semijoins (both directions) to a fixpoint. *)
let reduce db (ranges : (var * range) list) (conj : Normalize.conjunction) =
  let vars = List.map fst ranges in
  match graph_of_conjunction vars conj with
  | None -> None
  | Some g ->
    Obs.Trace.with_span "semijoin_reduce" @@ fun () ->
    let monadic v = Plan.monadic_over v conj in
    let rels =
      List.map
        (fun (v, range) -> (v, initial_relation db range (monadic v) v))
        ranges
    in
    let before = List.map (fun (v, r) -> (v, Relation.cardinality r)) rels in
    let steps, rels =
      if is_tree g then
        let root = match vars with v :: _ -> v | [] -> invalid_arg "no vars" in
        let schedule = full_reducer_schedule g ~root in
        (schedule, run_steps rels schedule)
      else begin
        (* Fixpoint iteration of all semijoins in both directions. *)
        let all_steps =
          List.concat_map
            (fun e ->
              [
                { st_target = e.ev1; st_source = e.ev2; st_edge = e };
                { st_target = e.ev2; st_source = e.ev1; st_edge = e };
              ])
            g.g_edges
        in
        let rec iterate rels acc n =
          if n > 20 then (acc, rels)
          else
            let sizes = List.map (fun (v, r) -> (v, Relation.cardinality r)) rels in
            let rels' = run_steps rels all_steps in
            let sizes' = List.map (fun (v, r) -> (v, Relation.cardinality r)) rels' in
            if sizes = sizes' then (acc, rels')
            else iterate rels' (acc @ all_steps) (n + 1)
        in
        iterate rels [] 0
      end
    in
    let after = List.map (fun (v, r) -> (v, Relation.cardinality r)) rels in
    let sizes l =
      Obs.Json.Obj (List.map (fun (v, n) -> (v, Obs.Json.Int n)) l)
    in
    Obs.Trace.add_attr "before" (sizes before);
    Obs.Trace.add_attr "after" (sizes after);
    Some { red_vars = rels; red_steps = steps; red_before = before; red_after = after }

(* ----------------------------------------------------------------- *)
(* The universal extension (paper Section 5: semi-joins "extended to the
   case of universal quantifiers").                                    *)

(* Reduce [outer] to the elements x with ALL y IN inner (x.oa <> y.ia):
   the antijoin — the universal counterpart of the semijoin. *)
let all_ne_reduce ?(name = "all_ne") ~outer_attr ~inner_attr outer inner =
  filter_by ~name ~storage:Value_list.Full ~quant:Value_list.Q_all Value.Ne
    ~outer_attr ~inner_attr outer inner

(* Reduce [outer] to the elements x with ALL y IN inner (x.oa = y.ia):
   non-empty only when inner has exactly one distinct [ia] value (the
   paper's at-most-one-value argument); empty inner keeps everything
   (ALL over the empty relation). *)
let all_eq_reduce ?(name = "all_eq") ~outer_attr ~inner_attr outer inner =
  filter_by ~name ~storage:Value_list.At_most_one ~quant:Value_list.Q_all
    Value.Eq ~outer_attr ~inner_attr outer inner
