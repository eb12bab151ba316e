(* Golden-file test pinning what the collection phase builds.

   Every built-in example runs under every strategy preset and both
   join orders, on small databases; one more leg runs the university
   examples with declared secondary indexes, so that an indirect join
   probes a declared index standing in for a per-query one and an
   equality restriction builds through an index probe.  Per execution
   the golden holds the sorted structure sizes, access paths and join
   algorithms, and the scan, probe, largest-n-tuple and row counts — so
   a change to how structures are described, keyed, shared or built
   shows up as a diff.  The options are pinned (one domain, window
   2048, indexes in use), so environment defaults cannot move it. *)

open Pascalr

let golden_path =
  if Sys.file_exists "golden/collection_structures.golden" then
    "golden/collection_structures.golden"
  else "test/golden/collection_structures.golden"

let university_examples =
  [
    ("running", Workload.Queries.running_query);
    ("example-4.5", Workload.Queries.example_4_5);
    ("example-4.7", Workload.Queries.example_4_7);
    ("existential", Workload.Queries.existential_query);
    ("universal", Workload.Queries.universal_query);
  ]

let suppliers_examples =
  [
    ("ships-all-parts", Workload.Suppliers.ships_all_parts);
    ("ships-all-red", Workload.Suppliers.ships_all_red_parts);
    ("no-red-part", Workload.Suppliers.ships_no_red_part);
    ("london-some-red", Workload.Suppliers.london_ships_some_red);
  ]

(* Declared indexes of the indexed leg: [papers.penr] and
   [timetable.tenr] stand in for the per-query indexes the employee
   joins probe; [employees.estatus] and [papers.pyear] serve equality
   restrictions by probes. *)
let university_indexes =
  [
    ("papers", "penr");
    ("timetable", "tenr");
    ("employees", "estatus");
    ("papers", "pyear");
  ]

let pp_pairs label pp_v ppf pairs =
  List.iter
    (fun (k, v) -> Fmt.pf ppf "  %s %s %a@." label k pp_v v)
    (List.sort compare pairs)

let describe ppf name (r : Exec_result.t) =
  Fmt.pf ppf "%s@." name;
  pp_pairs "size" Fmt.int ppf r.Exec_result.intermediates;
  pp_pairs "path" Fmt.string ppf r.Exec_result.access_paths;
  pp_pairs "join" Fmt.string ppf r.Exec_result.join_algos;
  Fmt.pf ppf "  scans %d probes %d max_ntuple %d rows %d@."
    r.Exec_result.scans r.Exec_result.probes r.Exec_result.max_ntuple
    r.Exec_result.rows

let leg ppf label db examples =
  List.iter
    (fun (ename, query) ->
      let q = query db in
      List.iter
        (fun (sname, strategy) ->
          List.iter
            (fun join_order ->
              let opts =
                Exec_opts.make ~strategy ~join_order ~jobs:1 ~batch_size:2048
                  ~use_index:true ()
              in
              let r = Session.exec_report ~opts (Session.create db) q in
              describe ppf
                (String.concat " "
                   [
                     label; ename; sname; Exec_opts.join_order_to_string join_order;
                   ])
                r)
            [ Combination.Cost_ordered; Combination.Declaration ])
        Strategy.all_presets)
    examples

let actual_text () =
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  let university () =
    Workload.University.generate Workload.University.small_params
  in
  leg ppf "university" (university ()) university_examples;
  leg ppf "suppliers"
    (Workload.Suppliers.generate (Workload.Suppliers.scaled 1))
    suppliers_examples;
  let indexed = university () in
  List.iter
    (fun (rel, attr) ->
      ignore
        (Relalg.Database.declare_index indexed rel ~on:[ attr ]
          : Relalg.Secondary_index.t))
    university_indexes;
  leg ppf "university+indexes" indexed university_examples;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_structures_golden () =
  let actual = actual_text () in
  let expected = read_file golden_path in
  if not (String.equal actual expected) then begin
    (* Print the actual text so the golden can be regenerated by pasting
       this block into test/golden/collection_structures.golden. *)
    print_string "--- actual collection structures ---\n";
    print_string actual;
    print_string "--- end ---\n";
    let lines s = String.split_on_char '\n' s in
    let rec first_diff i = function
      | a :: ra, b :: rb ->
        if String.equal a b then first_diff (i + 1) (ra, rb)
        else Fmt.str "line %d: expected %S, got %S" i a b
      | a :: _, [] -> Fmt.str "line %d: expected %S, got end of text" i a
      | [], b :: _ -> Fmt.str "line %d: expected end of text, got %S" i b
      | [], [] -> "texts differ"
    in
    Alcotest.failf "collection structures drifted from %s: %s" golden_path
      (first_diff 1 (lines expected, lines actual))
  end

let suite =
  [
    ( "collection-golden",
      [
        Alcotest.test_case "collection structures match golden" `Quick
          test_structures_golden;
      ] );
  ]
