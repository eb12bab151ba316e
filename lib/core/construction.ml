(* The CONSTRUCTION PHASE (paper Section 3.3): dereference the reference
   n-tuples surviving the combination phase and project on the
   components specified in the component selection. *)

open Relalg
open Calculus

let run ?name db (plan : Plan.t) refs =
  let query =
    { free = plan.Plan.free; select = plan.Plan.select; body = F_true }
  in
  let out_schema = Wellformed.result_schema db query in
  let out = Relation.create ?name out_schema in
  let free_names = List.map fst plan.Plan.free in
  let schema_of_var =
    List.map
      (fun (v, (r : range)) ->
        (v, Relation.schema (Database.find_relation db r.range_rel)))
      plan.Plan.free
  in
  let ref_schema = Relation.schema refs in
  let positions =
    List.map (fun v -> Schema.index_of ref_schema v) free_names
  in
  (* The combination result is an intermediate, not a read of the
     database: iterate it uncounted. *)
  Relation.iter
    (fun t ->
      (* Regain each selected variable from its reference. *)
      let bindings =
        List.map2
          (fun v pos ->
            let tuple = Database.deref_value db (Tuple.get t pos) in
            (v, tuple))
          free_names positions
      in
      let projected =
        Tuple.of_list
          (List.map
             (fun (v, a) ->
               let tuple = List.assoc v bindings in
               let schema = List.assoc v schema_of_var in
               Tuple.get_by_name schema tuple a)
             plan.Plan.select)
      in
      Relation.insert out projected)
    refs;
  out
