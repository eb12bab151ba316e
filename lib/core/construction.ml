(* The CONSTRUCTION PHASE (paper Section 3.3): dereference the reference
   n-tuples surviving the combination phase and project on the
   components specified in the component selection.  A reference made
   during the execution is an ordinal of the query's tuple table, so a
   dereference is an array index. *)

open Relalg
open Calculus

let run ?name db (plan : Plan.t) pool (refs : Batch.columns) =
  let query =
    { free = plan.Plan.free; select = plan.Plan.select; body = F_true }
  in
  let out = Relation.create ?name (Wellformed.result_schema db query) in
  (* Resolved once: each free variable's column in [refs], and each
     selected component's variable and position. *)
  let free = Array.of_list plan.Plan.free in
  let ref_cols =
    Array.map
      (fun (v, _) ->
        refs.Batch.c_cols.(Schema.index_of refs.Batch.c_schema v))
      free
  in
  let var_index v =
    let rec go i =
      if String.equal (fst free.(i)) v then i else go (i + 1)
    in
    go 0
  in
  let sel_var = Array.of_list (List.map (fun (v, _) -> var_index v) plan.Plan.select) in
  let sel_pos =
    Array.of_list
      (List.map
         (fun (v, a) ->
           let (r : range) = snd free.(var_index v) in
           Schema.index_of
             (Relation.schema (Database.find_relation db r.range_rel))
             a)
         plan.Plan.select)
  in
  (* Each row regains every selected variable from its ordinal into
     this scratch, then projects one output array.  The output's key is
     the whole tuple and its components come from checked relations, so
     the unchecked insert stores the same set. *)
  let elements = Array.make (Array.length free) [||] in
  let cell j = elements.(sel_var.(j)).(sel_pos.(j)) in
  for row = 0 to refs.Batch.c_rows - 1 do
    for k = 0 to Array.length free - 1 do
      elements.(k) <- Batch.tuple_at pool (Batch.cell ref_cols.(k) row)
    done;
    Relation.insert_unchecked out (Array.init (Array.length sel_pos) cell)
  done;
  out
