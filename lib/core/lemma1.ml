(* Lemma 1 (paper Section 2): the four distribution rules of AND/OR over
   range-coupled quantifiers, two of which hold only for non-empty range
   relations.  Let A be a wff in which rec does not occur, B any wff:

   1. A AND SOME rec IN rel (B) = SOME rec IN rel (A AND B)      (always)
   2. A OR  SOME rec IN rel (B) = A,                 if rel = []
                                = SOME rec IN rel (A OR B)  otherwise
   3. A AND ALL  rec IN rel (B) = A,                 if rel = []
                                = ALL rec IN rel (A AND B)  otherwise
   4. A OR  ALL  rec IN rel (B) = ALL rec IN rel (A OR B)        (always)

   [rewrite] applies the correct variant, asking the database through
   Standard_form.range_is_empty (the one emptiness question a plan
   records); [rewrite_assuming_nonempty] applies the unconditional
   forms — the compile-time behaviour whose runtime repair is the
   adaptation pass.
   The test suite proves both the rules and their empty-relation
   exceptions against the naive and one-sorted semantics. *)

open Calculus

type rule = Rule1 | Rule2 | Rule3 | Rule4

let rule_to_string = function
  | Rule1 -> "A AND SOME rec (B)"
  | Rule2 -> "A OR SOME rec (B)"
  | Rule3 -> "A AND ALL rec (B)"
  | Rule4 -> "A OR ALL rec (B)"

(* Side condition: rec must not occur (free) in A. *)
let side_condition v a = not (Var_set.mem v (free_vars a))

(* Match a formula against a rule's left-hand side.  Returns
   (A, rec, range, B) on success.  The commuted forms (quantifier on the
   left) are matched too. *)
let match_lhs rule f =
  let pick a b =
    match b with
    | F_some (v, r, body) when rule = Rule1 || rule = Rule2 ->
      if side_condition v a then Some (a, v, r, body) else None
    | F_all (v, r, body) when rule = Rule3 || rule = Rule4 ->
      if side_condition v a then Some (a, v, r, body) else None
    | _ -> None
  in
  match rule, f with
  | (Rule1 | Rule3), F_and (x, y) -> (
    match pick x y with Some m -> Some m | None -> pick y x)
  | (Rule2 | Rule4), F_or (x, y) -> (
    match pick x y with Some m -> Some m | None -> pick y x)
  | (Rule1 | Rule2 | Rule3 | Rule4), _ -> None

(* The unconditional (non-empty assumption) rewrite. *)
let rewrite_assuming_nonempty rule f =
  match match_lhs rule f with
  | None -> None
  | Some (a, v, r, b) -> (
    match rule with
    | Rule1 -> Some (F_some (v, r, f_and a b))
    | Rule2 -> Some (F_some (v, r, f_or a b))
    | Rule3 -> Some (F_all (v, r, f_and a b))
    | Rule4 -> Some (F_all (v, r, f_or a b)))

(* The correct rewrite, consulting the live database for the
   empty-relation exceptions of rules 2 and 3. *)
let rewrite db rule f =
  match match_lhs rule f with
  | None -> None
  | Some (a, v, r, b) -> (
    match rule with
    | Rule1 -> Some (F_some (v, r, f_and a b))
    | Rule4 -> Some (F_all (v, r, f_or a b))
    | Rule2 ->
      if Standard_form.range_is_empty db r then Some a
      else Some (F_some (v, r, f_or a b))
    | Rule3 ->
      if Standard_form.range_is_empty db r then Some a
      else Some (F_all (v, r, f_and a b)))

let all_rules = [ Rule1; Rule2; Rule3; Rule4 ]
