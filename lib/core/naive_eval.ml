(* Ground-truth evaluator: direct tuple-substitution semantics of the
   calculus.  "Many systems evaluate queries directly as given by the
   user" (paper Section 2) — this is that evaluator: nested scans, one
   per variable occurrence, no intermediate structures.  Every other
   evaluation strategy in this library is tested against it. *)

open Relalg
open Calculus

exception Eval_error of string

let evalf fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

(* Name resolution needs the schema of each variable's range; the
   environment carries both the tuple and its schema. *)
type binding = { tuple : Tuple.t; schema : Schema.t }

type benv = binding Var_map.t

let operand db (env : benv) = function
  | O_const c ->
    ignore db;
    c
  | O_attr (v, a) -> (
    match Var_map.find_opt v env with
    | None -> evalf "unbound variable %s" v
    | Some b -> Tuple.get_by_name b.schema b.tuple a)
  | O_param p -> evalf "unbound parameter $%s" p

let atom_holds db env a =
  Value.apply a.op (operand db env a.lhs) (operand db env a.rhs)

(* Iterate the elements of a range (applying its restriction, if any),
   with instrumented scans: the naive evaluator re-reads a relation for
   every enclosing binding — the cost the collection phase avoids. *)
let range_elements db range =
  let rel = Database.find_relation db range.range_rel in
  let schema = Relation.schema rel in
  (rel, schema)

let rec range_satisfies db schema restriction tuple =
  match restriction with
  | None -> true
  | Some (v, f) ->
    holds db (Var_map.add v { tuple; schema } Var_map.empty) f

and iter_range db range f =
  let rel, schema = range_elements db range in
  Relation.scan
    (fun tuple ->
      if range_satisfies db schema range.restriction tuple then
        f { tuple; schema })
    rel

and exists_in_range db range p =
  let rel, schema = range_elements db range in
  Relation.scan_exists
    (fun tuple ->
      range_satisfies db schema range.restriction tuple && p { tuple; schema })
    rel

and forall_in_range db range p =
  not (exists_in_range db range (fun b -> not (p b)))

and holds db (env : benv) = function
  | F_true -> true
  | F_false -> false
  | F_atom a -> atom_holds db env a
  | F_not f -> not (holds db env f)
  | F_and (a, b) -> holds db env a && holds db env b
  | F_or (a, b) -> holds db env a || holds db env b
  | F_some (v, r, f) ->
    exists_in_range db r (fun b -> holds db (Var_map.add v b env) f)
  | F_all (v, r, f) ->
    forall_in_range db r (fun b -> holds db (Var_map.add v b env) f)

(* Evaluate a full selection: enumerate the free variables' (restricted)
   ranges, keep the combinations satisfying the body, project on the
   component selection. *)
let run ?name db (q : query) =
  Obs.Trace.with_span "naive_eval" @@ fun () ->
  let out_schema = Wellformed.result_schema db q in
  let result = Relation.create ?name out_schema in
  let project env =
    Tuple.of_list
      (List.map
         (fun (v, a) ->
           let b = Var_map.find v env in
           Tuple.get_by_name b.schema b.tuple a)
         q.select)
  in
  let rec loop env = function
    | [] -> if holds db env q.body then Relation.insert result (project env)
    | (v, range) :: rest ->
      iter_range db range (fun b -> loop (Var_map.add v b env) rest)
  in
  loop Var_map.empty q.free;
  result

(* Truth of a closed formula (no free variables) — used by tests of the
   logical transformation rules. *)
let closed_holds db f = holds db Var_map.empty f
