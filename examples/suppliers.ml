(* Universal quantification on the classic suppliers-parts database:
   division queries ("ships ALL parts", "ships ALL red parts"), their
   antijoin dual ("ships NO red part"), and how the strategies treat
   them.

     dune exec examples/suppliers.exe *)

open Relalg
open Pascalr

let show db name q =
  let reference = Naive_eval.run db q in
  Fmt.pr "@.%s@.%a@." name Calculus.pp_query q;
  Fmt.pr "answer: %a@."
    (Fmt.list ~sep:Fmt.comma Value.pp)
    (List.map (fun t -> Tuple.get t 0) (Relation.to_list reference));
  List.iter
    (fun (sname, strategy) ->
      let report = Session.exec_report ~opts:(Exec_opts.make ~strategy ()) (Session.create db) q in
      Fmt.pr "  %-12s scans %2d  max n-tuple %6d  agree %b@." sname
        report.Exec_result.scans report.Exec_result.max_ntuple
        (Relation.equal_set report.Exec_result.result reference))
    Strategy.all_presets

let () =
  let db = Workload.Suppliers.generate Workload.Suppliers.default_params in
  Fmt.pr "suppliers: %d, parts: %d, shipments: %d@."
    (Relation.cardinality (Database.find_relation db "suppliers"))
    (Relation.cardinality (Database.find_relation db "parts"))
    (Relation.cardinality (Database.find_relation db "shipments"));
  show db "-- suppliers shipping ALL parts (division) --"
    (Workload.Suppliers.ships_all_parts db);
  show db "-- suppliers shipping ALL red parts (division + extended range) --"
    (Workload.Suppliers.ships_all_red_parts db);
  show db "-- london suppliers shipping SOME red part (semijoin chain) --"
    (Workload.Suppliers.london_ships_some_red db);
  show db "-- suppliers shipping NO red part (antijoin after NNF) --"
    (Workload.Suppliers.ships_no_red_part db);
  (* The paper's Section 5 point: semi-joins extend to ALL.  Show the
     direct antijoin reduction agreeing with the query. *)
  let suppliers = Database.find_relation db "suppliers" in
  let red_shipments =
    let shipments = Database.find_relation db "shipments" in
    let parts = Database.find_relation db "parts" in
    let red_parts = Relation.create ~name:"red_parts" (Relation.schema parts) in
    Relation.iter
      (fun t ->
        if
          Value.equal
            (Tuple.get_by_name (Relation.schema parts) t "pcolor")
            (Workload.Suppliers.red db)
        then Relation.insert red_parts t)
      parts;
    Semijoin.some_eq_reduce ~outer_attr:"hpnr" ~inner_attr:"pnr" shipments
      red_parts
  in
  let no_red =
    Semijoin.all_ne_reduce ~outer_attr:"snr" ~inner_attr:"hsnr" suppliers
      red_shipments
  in
  let by_query =
    Naive_eval.run db (Workload.Suppliers.ships_no_red_part db)
  in
  Fmt.pr
    "@.antijoin reduction: %d suppliers ship no red part; query agrees: %b@."
    (Relation.cardinality no_red)
    (Relation.cardinality no_red = Relation.cardinality by_query)
