(* Selected variables and references (paper Section 3.1, Example 3.1):
   rel[keyval] element access, @rel[keyval] reference values, regaining
   the selected variable from a reference, and a primary index
   maintained alongside insertions — exactly Example 3.1's enrindex.

     dune exec examples/references.exe *)

open Relalg

let () =
  let db = Database.create () in
  let s = Workload.University.declare db ~max_enr:99 ~max_cnr:99 in
  let employees = Database.find_relation db "employees" in
  let status = s.Workload.University.status_type in

  (* Example 3.1's enrindex as a materialized PASCAL/R relation
     <enr, eref> — here we keep it as a relation (faithful form), and
     at the end declare the permanent index the engine probes. *)
  let enrindex_schema =
    Schema.make
      [
        Schema.attr "enr" (Vtype.int_range 1 99);
        Schema.attr "eref" (Vtype.reference "employees");
      ]
      ~key:[ "enr" ]
  in
  let enrindex = Relation.create ~name:"enrindex" enrindex_schema in

  (* employees :+ [<20, technician, 'Highman'>];
     enrindex  :+ [<20, @employees[20]>]; *)
  let hire enr name st =
    let tuple = Tuple.of_list [ Value.int enr; Value.str name; Value.enum status st ] in
    (* The catalogued state: declaring an index below installs a new one. *)
    Relation.insert (Database.find_relation db "employees") tuple;
    Relation.insert enrindex
      (Tuple.of_list
         [ Value.int enr; Reference.value_of_tuple employees tuple ])
  in
  hire 20 "highman" "technician";
  hire 7 "codd" "professor";
  hire 13 "palermo" "assistant";

  Fmt.pr "employees:@.%a@.@." Relation.pp employees;
  Fmt.pr "enrindex (Example 3.1):@.%a@.@." Relation.pp enrindex;

  (* Selected variable: employees[7]. *)
  (match Relation.find_key employees [ Value.int 7 ] with
  | Some t -> Fmt.pr "employees[7] = %a@." Tuple.pp t
  | None -> Fmt.pr "employees[7] does not exist@.");

  (* Reference value @employees[13], stored and dereferenced. *)
  let r = Reference.make ~target:"employees" ~key:[ Value.int 13 ] in
  Fmt.pr "reference %a@." Reference.pp r;
  Fmt.pr "dereferenced: %a@.@." Tuple.pp (Database.deref db r);

  (* The index relation resolves key values to references, and the
     reference regains the element — the round trip of Section 3.1. *)
  (match Relation.find_key enrindex [ Value.int 20 ] with
  | Some entry ->
    let eref = Reference.of_value (Tuple.get entry 1) in
    Fmt.pr "enrindex[20].eref = %a -> %a@.@." Reference.pp eref Tuple.pp
      (Database.deref db eref)
  | None -> ());

  (* Dangling references are detected. *)
  Relation.delete_key employees [ Value.int 20 ];
  (match Database.deref db (Reference.make ~target:"employees" ~key:[ Value.int 20 ]) with
  | _ -> ()
  | exception Errors.Dangling_reference msg ->
    Fmt.pr "after deletion, dereferencing fails: %s@.@." msg);

  (* The engine-facing form: a declared index is the permanent index
     that lets the collection phase omit index-building scans (Section
     3.2).  Unlike enrindex above, nobody maintains it by hand: every
     later insertion and deletion updates it. *)
  let idx = Database.declare_index db "employees" ~on:[ "enr" ] in
  Fmt.pr "permanent index on employees.enr: %d entries@."
    (Secondary_index.entry_count idx);
  hire 42 "jarke" "professor";
  Fmt.pr "after one more hire: %d entries@." (Secondary_index.entry_count idx)
