(* The standard form: a selection expression in prenex normal form with a
   DNF matrix — the "standardized starting point for optimization" of
   paper Section 2.

   Compilation assumes all range relations non-empty; {!adapt_query}
   performs the paper's runtime adaptation by simplifying quantifiers
   over ranges that are actually empty in the live database *before*
   prenexing (Example 2.2: with papers = [], the query collapses to
   the professors test). *)

open Relalg
open Calculus

type t = {
  free : (var * range) list;
  select : (var * string) list;
  prefix : Normalize.prefix_entry list;
  matrix : Normalize.dnf;
}

(* --- Emptiness questions ------------------------------------------- *)

(* Planning reads the data only through [range_is_empty]: adaptation,
   strategy 3's extension and Lemma 1's exceptions each ask whether a
   range is empty.  A plan is therefore a pure function of the query,
   the options and the answers, and stays valid on any snapshot where
   every answer it was planned under still holds.  [recording] collects
   those answers; each remembers the relation states (ids and versions)
   it read, so re-checking it on a snapshot that shares those states is
   two integer compares per relation. *)
type answer =
  | Assumed of range
      (* mentions a $param: unknowable before the bindings, planned as
         non-empty, asked again under every execution's bindings *)
  | Answered of {
      range : range;
      empty : bool;
      mutable read : (string * int * int) list;
          (* every relation the answer read: name, state id, version *)
    }

type answers = answer list

let recorder : answer list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let recording f =
  let saved = Domain.DLS.get recorder in
  let asked = ref [] in
  Domain.DLS.set recorder (Some asked);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set recorder saved)
    (fun () ->
      let v = f () in
      (v, List.rev !asked))

let question = function Assumed r | Answered { range = r; _ } -> r

let record a =
  match Domain.DLS.get recorder with
  | Some asked
    when not (List.exists (fun b -> equal_range (question a) (question b)) !asked)
    ->
    asked := a :: !asked
  | Some _ | None -> ()

(* The relations a range's emptiness depends on: its own, and those
   its restriction quantifies over. *)
let rec range_rels acc (r : range) =
  match r.restriction with
  | None -> r.range_rel :: acc
  | Some (_, f) -> formula_rels (r.range_rel :: acc) f

and formula_rels acc = function
  | F_true | F_false | F_atom _ -> acc
  | F_not f -> formula_rels acc f
  | F_and (a, b) | F_or (a, b) -> formula_rels (formula_rels acc a) b
  | F_some (_, r, f) | F_all (_, r, f) -> formula_rels (range_rels acc r) f

(* States are remembered by id, not held: a cached plan keeps no
   retired state alive. *)
let states db range =
  List.map
    (fun n ->
      let r = Database.find_relation db n in
      (n, Relation.id r, Relation.version r))
    (range_rels [] range)

let unmoved db (n, id, version) =
  let r = Database.find_relation db n in
  Relation.id r = id && Relation.version r = version

(* Is a range empty in [db]?  An extended range costs one counted scan
   that stops at the first element satisfying the restriction. *)
let ask db (range : range) =
  let rel = Database.find_relation db range.range_rel in
  match range.restriction with
  | None -> Relation.is_empty rel
  | Some (v, f) ->
    let schema = Relation.schema rel in
    not
      (Relation.scan_exists
         (fun tuple ->
           Naive_eval.holds db (Var_map.singleton v { Naive_eval.tuple; schema }) f)
         rel)

let has_params (range : range) =
  match range.restriction with
  | Some (_, f) -> not (Var_set.is_empty (formula_params Var_set.empty f))
  | None -> false

let range_is_empty db range =
  if has_params range then begin
    (* Keeping the quantifier is always correct, adaptation being only
       a simplification; execution checks the assumption once ground. *)
    record (Assumed range);
    false
  end
  else begin
    (* States before the answer: a write in between leaves them stale,
       so the answer is asked again, never trusted for newer states. *)
    let read = states db range in
    let empty = ask db range in
    record (Answered { range; empty; read });
    empty
  end

(* Does every answer still hold on [db]?  An answer whose relations are
   the very states it read, at the versions it read, holds unasked;
   otherwise it is asked again, and a confirmed answer moves to the
   states it was confirmed on. *)
let still_hold db answers =
  List.for_all
    (function
      | Assumed _ -> true
      | Answered a ->
        List.for_all (unmoved db) a.read
        ||
        let read = states db a.range in
        ask db a.range = a.empty
        && begin
             a.read <- read;
             true
           end)
    answers

(* Do the $param assumptions hold under bindings [b]?  One that still
   mentions an unbound $param stays assumed. *)
let hold_under b db answers =
  List.for_all
    (function
      | Assumed r ->
        let r = subst_range b r in
        has_params r || not (ask db r)
      | Answered _ -> true)
    answers

(* Runtime adaptation: replace quantifiers over empty ranges by their
   truth values (SOME over [] is false, ALL over [] is true), recursively
   and with constant propagation.  After this pass every remaining
   quantifier ranges over a non-empty relation, which legitimizes the
   prenex transformation. *)
let rec adapt_formula db = function
  | (F_true | F_false | F_atom _) as f -> f
  | F_not f -> f_not (adapt_formula db f)
  | F_and (a, b) -> f_and (adapt_formula db a) (adapt_formula db b)
  | F_or (a, b) -> f_or (adapt_formula db a) (adapt_formula db b)
  | F_some (v, r, f) ->
    if range_is_empty db r then F_false
    else (
      match adapt_formula db f with
      | F_false -> F_false
      | F_true -> F_true (* non-empty range: SOME of true is true *)
      | f' -> F_some (v, r, f'))
  | F_all (v, r, f) ->
    if range_is_empty db r then F_true
    else (
      match adapt_formula db f with
      | F_true -> F_true
      | F_false -> F_false (* non-empty range: ALL of false is false *)
      | f' -> F_all (v, r, f'))

let adapt_query db q = { q with body = adapt_formula db q.body }

(* Compile a query to standard form under the non-empty assumption. *)
let of_query (q : query) =
  let reserved =
    List.fold_left
      (fun acc (v, _) -> Var_set.add v acc)
      Var_set.empty q.free
  in
  let body = distinct_bound_vars reserved q.body in
  let body = Normalize.nnf body in
  let prefix, matrix_formula = Normalize.prenex body in
  let matrix = Normalize.dnf_of_matrix matrix_formula in
  (* Quantifiers whose variable no longer occurs in the matrix (their
     atoms were pruned) are vacuous over non-empty ranges. *)
  let used = Normalize.dnf_vars matrix in
  let prefix =
    List.filter (fun e -> Var_set.mem e.Normalize.v used) prefix
  in
  { free = q.free; select = q.select; prefix; matrix }

(* Adapt, then compile: the full runtime pipeline entry point. *)
let compile db q = of_query (adapt_query db q)

(* Rebuild a query from a standard form; used to cross-check every
   transformation against the naive evaluator. *)
let to_query (sf : t) =
  let matrix = Normalize.formula_of_dnf sf.matrix in
  let body =
    List.fold_right
      (fun { Normalize.q; v; range } acc ->
        match q with
        | Normalize.Q_some -> F_some (v, range, acc)
        | Normalize.Q_all -> F_all (v, range, acc))
      sf.prefix matrix
  in
  { free = sf.free; select = sf.select; body }

let pp ppf (sf : t) =
  let pp_sel ppf (v, a) = Fmt.pf ppf "%s.%s" v a in
  let pp_free ppf (v, r) = Fmt.pf ppf "EACH %s IN %a" v pp_range r in
  let pp_prefix ppf e =
    Fmt.pf ppf "%s %s IN %a"
      (Normalize.quant_to_string e.Normalize.q)
      e.Normalize.v pp_range e.Normalize.range
  in
  Fmt.pf ppf "@[<v2>[<%a> OF %a:@ %a@ %a]@]"
    (Fmt.list ~sep:Fmt.comma pp_sel)
    sf.select
    (Fmt.list ~sep:Fmt.comma pp_free)
    sf.free
    (Fmt.list ~sep:Fmt.sp pp_prefix)
    sf.prefix Normalize.pp_dnf sf.matrix

