(* pascalr — command-line driver for the PASCAL/R query processor.

   Subcommands:
     run       evaluate a query against a generated sample database
     analyze   EXPLAIN ANALYZE: evaluate under the span tracer and
               report measured per-phase cost (text or --json)
     stats     run a workload and report cumulative per-query
               statistics and the execution flight recorder
     traffic   drive a concurrent-client workload (closed or open
               loop) and report throughput + latency percentiles
     explain   show the transformation pipeline and evaluation plan
     plan      show the cost-based planner's decision
     normalize show the standard form (prenex + DNF) of a query
     script    execute a statement-level PASCAL/R program

   Queries are given in the paper's concrete syntax, either inline
   (--query), from a file (--file), or one of the named built-ins
   (--example).  Databases are the generated university or
   suppliers-parts instances. *)

open Relalg
open Pascalr
open Cmdliner

(* ----------------------------------------------------------------- *)
(* Database selection *)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

(* --schema declarations.pas [--load rel=data.csv ...] *)
let make_custom_db schema_path loads =
  let db = Pascalr_lang.Elaborate.database_of_string (read_file schema_path) in
  List.iter
    (fun spec ->
      match String.index_opt spec '=' with
      | None -> failwith ("--load expects REL=PATH, got " ^ spec)
      | Some i ->
        let rel_name = String.sub spec 0 i in
        let path = String.sub spec (i + 1) (String.length spec - i - 1) in
        let target = Database.find_relation db rel_name in
        let loaded =
          Csv_io.of_string ~name:(rel_name ^ "_csv")
            (Relation.schema target) (read_file path)
        in
        Relation.iter (Relation.insert target) loaded)
    loads;
  db

let make_db kind scale seed =
  match kind with
  | "university" ->
    Workload.University.generate
      { (Workload.University.scaled scale) with Workload.University.seed = seed }
  | "suppliers" ->
    Workload.Suppliers.generate
      { (Workload.Suppliers.scaled scale) with Workload.Suppliers.seed = seed }
  | other -> failwith ("unknown database kind: " ^ other)

let named_query db = function
  | "running" | "example-2.1" -> Workload.Queries.running_query db
  | "example-4.5" -> Workload.Queries.example_4_5 db
  | "example-4.7" -> Workload.Queries.example_4_7 db
  | "existential" -> Workload.Queries.existential_query db
  | "universal" -> Workload.Queries.universal_query db
  | "ships-all-parts" -> Workload.Suppliers.ships_all_parts db
  | "ships-all-red" -> Workload.Suppliers.ships_all_red_parts db
  | "no-red-part" -> Workload.Suppliers.ships_no_red_part db
  | other -> failwith ("unknown example query: " ^ other)

let resolve_query db ~query ~file ~example =
  match query, file, example with
  | Some src, None, None -> Pascalr_lang.Elaborate.query_of_string db src
  | None, Some path, None ->
    let ic = open_in path in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    Pascalr_lang.Elaborate.query_of_string db src
  | None, None, Some name -> named_query db name
  | None, None, None -> named_query db "running"
  | _ -> failwith "give at most one of --query, --file, --example"

let strategy_of_string = function
  | "palermo" -> Strategy.palermo
  | "s1" -> Strategy.s1
  | "s12" | "s1+s2" -> Strategy.s12
  | "s123" | "s1+s2+s3" -> Strategy.s123
  | "s1234" | "s1+s2+s3+s4" | "full" -> Strategy.full
  | "s123c" | "s1+s2+s3cnf" -> Strategy.s123c
  | "full-cnf" | "s1+s2+s3cnf+s4" -> Strategy.full_cnf
  | other -> failwith ("unknown strategy: " ^ other)

let join_order_of_flag = function
  | None -> Combination.Cost_ordered
  | Some s -> (
    match Exec_opts.join_order_of_string s with
    | Some jo -> jo
    | None -> failwith ("unknown join order: " ^ s))

(* --param NAME=VAL: VAL is an integer, true/false, a unique enumeration
   label of the database, or (otherwise) a string. *)
let param_value db s =
  match int_of_string_opt s with
  | Some n -> Value.VInt n
  | None -> (
    match s with
    | "true" -> Value.VBool true
    | "false" -> Value.VBool false
    | _ -> (
      let hits =
        List.filter
          (fun info -> Array.exists (String.equal s) info.Value.labels)
          (Database.enums db)
      in
      match hits with
      | [ info ] -> Value.enum info s
      | _ -> Value.VStr s))

let parse_params db specs =
  List.map
    (fun spec ->
      match String.index_opt spec '=' with
      | None -> failwith ("--param expects NAME=VAL, got " ^ spec)
      | Some i ->
        ( String.sub spec 0 i,
          param_value db (String.sub spec (i + 1) (String.length spec - i - 1))
        ))
    specs

(* ----------------------------------------------------------------- *)
(* Logs wiring.  The library's [pascalr.eval] source has debug-level
   messages for every pipeline transformation; without a reporter they
   are unreachable.  --verbosity installs one writing to stderr. *)

let log_reporter =
  {
    Logs.report =
      (fun src level ~over k msgf ->
        let k _ =
          over ();
          k ()
        in
        msgf (fun ?header ?tags fmt ->
            ignore header;
            ignore tags;
            Format.kfprintf k Format.err_formatter
              ("%s: [%s] " ^^ fmt ^^ "@.") (Logs.Src.name src)
              (match level with
              | Logs.App -> "app"
              | Logs.Error -> "error"
              | Logs.Warning -> "warning"
              | Logs.Info -> "info"
              | Logs.Debug -> "debug")));
  }

let setup_logs = function
  | None -> ()
  | Some level ->
    Logs.set_level level;
    Logs.set_reporter log_reporter

let verbosity_arg =
  (* [Some None] = reporter installed, all logging off. *)
  let levels =
    [
      ("quiet", Some None);
      ("error", Some (Some Logs.Error));
      ("warn", Some (Some Logs.Warning));
      ("warning", Some (Some Logs.Warning));
      ("info", Some (Some Logs.Info));
      ("debug", Some (Some Logs.Debug));
    ]
  in
  Arg.(
    value
    & opt (enum levels) None
    & info [ "verbosity" ] ~docv:"LEVEL"
        ~doc:
          "Install a Logs reporter at this level (quiet, error, warn, \
           info, debug).  $(b,debug) surfaces the pipeline's \
           transformation log (pascalr.eval source).")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Print the span trace (timing tree with metric deltas).")

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Arm slow-query capture: an execution taking at least MS wall \
           milliseconds arms its query digest, and the digest's next \
           execution is captured under a full span trace (exported with \
           $(b,--trace-out), listed by $(b,pascalr stats)).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the execution's span trace as Chrome trace-event JSON \
           to FILE (loadable in chrome://tracing and Perfetto).")

let write_chrome_trace path span =
  let oc = open_out path in
  output_string oc (Obs.Json.to_string (Obs.Trace.to_chrome span));
  output_char oc '\n';
  close_out oc;
  (* stderr: stdout may be the --json document. *)
  Fmt.epr "wrote Chrome trace to %s@." path

(* --failpoint SITE=TRIGGER: arm storage-layer fault-injection sites
   before evaluating, e.g. --failpoint heap.read.short=nth:2. *)
let failpoint_arg =
  Arg.(
    value & opt_all string []
    & info [ "failpoint" ] ~docv:"SITE=TRIGGER"
        ~doc:
          "Arm a fault-injection site before evaluating (repeatable).  \
           Sites: heap.write.partial, heap.read.short, pool.evict.io, \
           codec.decode.corrupt, db.save.crash.  Triggers: $(b,nth:N), \
           $(b,every:K), $(b,prob:P:SEED).")

(* Called outside [with_setup]'s recovery, so report bad specs directly
   with the usual prefix and exit code instead of an uncaught escape. *)
let arm_failpoints specs =
  List.iter
    (fun spec ->
      try Relalg.Failpoint.arm_spec spec
      with Invalid_argument msg ->
        Fmt.epr "pascalr: %s@." msg;
        exit 1)
    specs

(* ----------------------------------------------------------------- *)
(* Common options *)

let db_arg =
  Arg.(
    value
    & opt string "university"
    & info [ "d"; "db"; "database" ] ~docv:"KIND"
        ~doc:"Sample database: university or suppliers.")

let scale_arg =
  Arg.(
    value & opt int 1
    & info [ "s"; "scale" ] ~docv:"N" ~doc:"Database scale factor.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")

let query_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "q"; "query" ] ~docv:"SRC" ~doc:"Query in PASCAL/R syntax.")

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"PATH" ~doc:"Read the query from a file.")

let example_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "e"; "example" ] ~docv:"NAME"
        ~doc:
          "Built-in query: running, example-4.5, example-4.7, existential, \
           universal, ships-all-parts, ships-all-red, no-red-part.")

let strategy_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "strategy" ] ~docv:"S"
        ~doc:
          "Evaluation strategy: palermo, s1, s12, s123, s1234/full.  Default: \
           let the planner choose.")

let join_order_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "join-order" ] ~docv:"ORDER"
        ~doc:
          "Combination-phase join order: $(b,ordered) (greedy cost order, \
           default) or $(b,declaration) (the paper's literal baseline).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Domains executing the query, caller included.  $(b,1) forces \
           the serial engine; the default comes from PASCALR_JOBS or the \
           core count.")

let batch_size_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "batch-size" ] ~docv:"N"
        ~doc:
          "Row window of the vectorized stream kernels; every size \
           computes the same answer.  The default comes from \
           PASCALR_BATCH_SIZE or 2048.")

let param_arg =
  Arg.(
    value & opt_all string []
    & info [ "param" ] ~docv:"NAME=VAL"
        ~doc:
          "Bind the query's \\$NAME placeholder (repeatable).  VAL is an \
           integer, true/false, or an enumeration label.")

(* --index REL:ATTR[,ATTR..][:KIND]: declare persistent secondary
   indexes before evaluating, so the collection phase can serve
   restrictions by probe/range scan instead of heap scans. *)
let index_arg =
  Arg.(
    value & opt_all string []
    & info [ "index" ] ~docv:"REL:ATTR[:KIND]"
        ~doc:
          "Declare a secondary index on relation REL's component ATTR \
           before evaluating (repeatable; ATTR may be a comma-separated \
           component list).  KIND is $(b,hash) (default; equality \
           probes) or $(b,sorted) (equality and range scans).")

let no_index_arg =
  Arg.(
    value & flag
    & info [ "no-index" ]
        ~doc:
          "Force heap scans: ignore declared secondary indexes when \
           choosing collection-phase access paths (the environment \
           variable PASCALR_NO_INDEX=1 has the same effect).")

let declare_indexes db specs =
  List.iter
    (fun spec ->
      let fail () =
        failwith
          (Fmt.str
             "bad --index spec %S (expected REL:ATTR[,ATTR..][:hash|sorted])"
             spec)
      in
      let rel, on, kind =
        match String.split_on_char ':' spec with
        | [ rel; attrs ] -> (rel, attrs, Relalg.Secondary_index.Hash)
        | [ rel; attrs; kind ] -> (
          ( rel,
            attrs,
            match String.lowercase_ascii kind with
            | "hash" -> Relalg.Secondary_index.Hash
            | "sorted" -> Relalg.Secondary_index.Sorted
            | _ -> fail () ))
        | _ -> fail ()
      in
      let on =
        List.filter (fun a -> a <> "") (String.split_on_char ',' on)
      in
      if rel = "" || on = [] then fail ();
      try ignore (Database.declare_index ~kind db rel ~on : Secondary_index.t)
      with
      | Errors.Unknown_relation m -> failwith ("--index: unknown relation " ^ m)
      | Errors.Unknown_attribute m -> failwith ("--index: unknown component " ^ m)
      | Errors.Schema_error m -> failwith ("--index: " ^ m))
    specs

(* ----------------------------------------------------------------- *)
(* Subcommands *)

let schema_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "schema" ] ~docv:"PATH"
        ~doc:"Use a PASCAL/R declaration file instead of a sample database.")

let load_arg =
  Arg.(
    value & opt_all string []
    & info [ "load" ] ~docv:"REL=CSV"
        ~doc:"Load a CSV file into a declared relation (with --schema).")

let with_setup kind scale seed schema loads query file example k =
  try
    let db =
      match schema with
      | Some path -> make_custom_db path loads
      | None ->
        if loads <> [] then failwith "--load requires --schema";
        make_db kind scale seed
    in
    let q = resolve_query db ~query ~file ~example in
    (match Wellformed.check_query db q with
    | Ok () -> ()
    | Error e -> failwith ("ill-formed query: " ^ e.Wellformed.message));
    k db q;
    0
  with
  | Failure msg
  | Pascalr_lang.Elaborate.Elab_error msg ->
    Fmt.epr "pascalr: %s@." msg;
    1
  | Pascalr_lang.Parser.Parse_error (msg, pos) ->
    Fmt.epr "pascalr: parse error at line %d, column %d: %s@."
      pos.Pascalr_lang.Token.line pos.Pascalr_lang.Token.column msg;
    1
  | Pascalr_lang.Lexer.Lex_error (msg, pos) ->
    Fmt.epr "pascalr: lexical error at line %d, column %d: %s@."
      pos.Pascalr_lang.Token.line pos.Pascalr_lang.Token.column msg;
    1
  | Errors.Io_error msg ->
    Fmt.epr "pascalr: I/O fault: %s@." msg;
    1
  | Errors.Corruption msg ->
    Fmt.epr "pascalr: corruption detected: %s@." msg;
    1
  | Prepared.Unbound_parameter p ->
    Fmt.epr "pascalr: parameter $%s is not bound (use --param %s=VAL)@." p p;
    1
  | Prepared.Unknown_parameter p ->
    Fmt.epr "pascalr: the query has no parameter $%s@." p;
    1

let pool_pages_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "pool-pages" ] ~docv:"N"
        ~doc:
          "Attach paged storage with a shared buffer pool of N pages \
           before evaluating, so the run includes simulated page I/O \
           (and fault-injection sites at the storage layer).")

let run_cmd =
  let go kind scale seed schema loads query file example strategy join_order
      jobs batch_size indexes no_index params verbose trace slow_ms trace_out
      pool_pages verbosity failpoints =
    setup_logs verbosity;
    arm_failpoints failpoints;
    Obs.Flight_recorder.set_slow_ms slow_ms;
    with_setup kind scale seed schema loads query file example (fun db q ->
        (match pool_pages with
        | Some n when n <= 0 -> failwith "--pool-pages must be positive"
        | Some n -> ignore (Database.attach_storage db ~pool_pages:n)
        | None -> ());
        declare_indexes db indexes;
        Fmt.pr "query: %a@.@." Calculus.pp_query q;
        let t0 = Unix.gettimeofday () in
        let decision, st =
          match strategy with
          | Some s -> (None, strategy_of_string s)
          | None ->
            let d = Planner.choose db q in
            (Some d, d.Planner.d_strategy)
        in
        let opts =
          Exec_opts.make ~strategy:st
            ~join_order:(join_order_of_flag join_order) ?jobs ?batch_size
            ~use_index:(Exec_opts.default_use_index && not no_index) ()
        in
        let params = parse_params db params in
        let session = Session.create db in
        let report, span =
          (* --trace-out needs the span even without --trace. *)
          if trace || trace_out <> None then
            let report, span = Session.exec_traced ~opts ~params session q in
            (report, Some span)
          else (Session.exec_report ~opts ~params session q, None)
        in
        let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        (match span, trace_out with
        | Some span, Some path -> write_chrome_trace path span
        | _ -> ());
        (match decision with
        | Some d -> Fmt.pr "planner: %a@.@." Strategy.pp d.Planner.d_strategy
        | None -> ());
        Fmt.pr "%a@.@." Relation.pp report.Exec_result.result;
        Fmt.pr "%d elements in %.2f ms; %d scans, %d probes, max n-tuple %d@."
          (Relation.cardinality report.Exec_result.result)
          ms report.Exec_result.scans report.Exec_result.probes
          report.Exec_result.max_ntuple;
        if verbose then begin
          Fmt.pr "@.intermediate structures:@.";
          List.iter
            (fun (key, size) -> Fmt.pr "  %6d  %s@." size key)
            report.Exec_result.intermediates
        end;
        match span with
        | Some span when trace -> Fmt.pr "@.%a" Obs.Trace.pp span
        | Some _ | None -> ())
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Show intermediates.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Evaluate a query")
    Term.(
      const go $ db_arg $ scale_arg $ seed_arg $ schema_arg $ load_arg
      $ query_arg $ file_arg $ example_arg $ strategy_arg $ join_order_arg
      $ jobs_arg $ batch_size_arg $ index_arg $ no_index_arg $ param_arg
      $ verbose $ trace_arg $ slow_ms_arg
      $ trace_out_arg $ pool_pages_arg $ verbosity_arg $ failpoint_arg)

(* ----------------------------------------------------------------- *)
(* analyze: EXPLAIN ANALYZE for the three-phase pipeline.  The report
   assembly (per-phase rows, JSON document) lives in {!Pascalr.Analyze}
   so its schema is pinned by the golden-file test; this command only
   prints it. *)

let analyze_cmd =
  let go kind scale seed schema loads query file example strategy join_order
      jobs batch_size indexes no_index params repeat json show_trace slow_ms
      trace_out pool_pages verbosity failpoints =
    setup_logs verbosity;
    arm_failpoints failpoints;
    Obs.Flight_recorder.set_slow_ms slow_ms;
    with_setup kind scale seed schema loads query file example (fun db q ->
        declare_indexes db indexes;
        let st =
          match strategy with
          | Some s -> strategy_of_string s
          | None -> (Planner.choose db q).Planner.d_strategy
        in
        let opts =
          Exec_opts.make ~strategy:st
            ~join_order:(join_order_of_flag join_order) ?jobs ?batch_size
            ~use_index:(Exec_opts.default_use_index && not no_index) ()
        in
        let params = parse_params db params in
        let a =
          try Analyze.run ?pool_pages ~repeat ~opts ~params db q
          with Invalid_argument _ ->
            failwith "--pool-pages and --repeat must be positive"
        in
        (match trace_out with
        | Some path -> write_chrome_trace path a.Analyze.a_root
        | None -> ());
        let rows = a.Analyze.a_rows in
        let total_ms = a.Analyze.a_root.Obs.Trace.sp_elapsed_ms in
        let report = a.Analyze.a_report in
        if json then
          Fmt.pr "%a@." Obs.Json.pp_pretty
            (Analyze.to_json ~database:kind ~scale db q a)
        else begin
          Fmt.pr "query: %a@.@." Calculus.pp_query q;
          Fmt.pr "strategy: %a@.%s@." Strategy.pp st
            (Explain.explain_plan report.Exec_result.plan);
          Fmt.pr "measured (wall clock, metric deltas per pipeline step):@.";
          Fmt.pr "%-16s %10s %8s %8s %12s %10s@." "step" "wall ms" "scans"
            "probes" "max-ntuple" "tuples";
          List.iter
            (fun r ->
              Fmt.pr "%-16s %10.3f %8d %8d %12d %10d@." r.Analyze.ph_name
                r.Analyze.ph_ms r.Analyze.ph_scans r.Analyze.ph_probes
                r.Analyze.ph_max_ntuple r.Analyze.ph_tuples)
            rows;
          Fmt.pr "%-16s %10.3f %8d %8d %12d@." "total" total_ms
            report.Exec_result.scans report.Exec_result.probes
            report.Exec_result.max_ntuple;
          (match Database.pool_stats db with
          | Some s -> Fmt.pr "buffer pool: %a@." Buffer_pool.pp_stats s
          | None -> ());
          (match Failpoint.armed_sites () with
          | [] -> ()
          | armed ->
            Fmt.pr "failpoints: %a@."
              (Fmt.list ~sep:Fmt.comma (fun ppf (site, trig) ->
                   Fmt.pf ppf "%s=%s" site (Failpoint.trigger_to_string trig)))
              armed);
          Fmt.pr "@.%d elements in the result.@."
            (Relation.cardinality report.Exec_result.result);
          if show_trace then Fmt.pr "@.%a" Obs.Trace.pp a.Analyze.a_root
        end)
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the full report as machine-readable JSON.")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Execute the query N times through one session; the report \
             describes the last execution, so with N > 1 the trace shows \
             the plan-cache hit (no planning spans).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Evaluate a query under the span tracer and report measured \
          per-phase cost (EXPLAIN ANALYZE)")
    Term.(
      const go $ db_arg $ scale_arg $ seed_arg $ schema_arg $ load_arg
      $ query_arg $ file_arg $ example_arg $ strategy_arg $ join_order_arg
      $ jobs_arg $ batch_size_arg $ index_arg $ no_index_arg $ param_arg
      $ repeat_arg $ json_arg $ trace_arg
      $ slow_ms_arg $ trace_out_arg $ pool_pages_arg $ verbosity_arg
      $ failpoint_arg)

(* ----------------------------------------------------------------- *)
(* stats: run a workload through one session, then report the
   cumulative per-digest statistics and the flight recorder.  The
   registries are in-process, so the command executes the workload
   itself: by default a built-in mix of three queries against the
   chosen sample database (repeated, so later rounds demonstrate
   plan-cache hits), or a single query given the usual --query / --file
   / --example. *)

let stats_cmd =
  let go kind scale seed schema loads query file example strategy join_order
      jobs batch_size params repeat json slow_ms trace_out verbosity =
    setup_logs verbosity;
    Obs.Flight_recorder.set_slow_ms slow_ms;
    if repeat < 1 then begin
      Fmt.epr "pascalr: --repeat must be positive@.";
      exit 1
    end;
    let explicit =
      query <> None || file <> None || example <> None || schema <> None
    in
    (* with_setup's fallback query is the university running example,
       which does not elaborate against other databases; when the
       built-in workload mix will be used anyway, resolve a query that
       matches the chosen database. *)
    let example =
      if explicit then example
      else Some (if kind = "suppliers" then "ships-all-parts" else "running")
    in
    with_setup kind scale seed schema loads query file example (fun db q ->
        let workload =
          if explicit then [ q ]
          else
            match kind with
            | "suppliers" ->
              [
                Workload.Suppliers.ships_all_parts db;
                Workload.Suppliers.ships_all_red_parts db;
                Workload.Suppliers.ships_no_red_part db;
              ]
            | _ ->
              [
                Workload.Queries.running_query db;
                Workload.Queries.existential_query db;
                Workload.Queries.universal_query db;
              ]
        in
        let opts_of qq =
          let st =
            match strategy with
            | Some s -> strategy_of_string s
            | None -> (Planner.choose db qq).Planner.d_strategy
          in
          Exec_opts.make ~strategy:st
            ~join_order:(join_order_of_flag join_order) ?jobs ?batch_size ()
        in
        let params = parse_params db params in
        let workload = List.map (fun qq -> (qq, opts_of qq)) workload in
        let session = Session.create db in
        for _ = 1 to repeat do
          List.iter
            (fun (qq, opts) ->
              ignore (Session.exec ~opts ~params session qq : Relation.t))
            workload
        done;
        (match trace_out with
        | None -> ()
        | Some path ->
          (* Prefer a captured slow-query trace; otherwise trace one
             more execution of the workload's first query. *)
          let span =
            match Obs.Flight_recorder.slow_traces () with
            | (_, span) :: _ -> span
            | [] ->
              let qq, opts = List.hd workload in
              snd (Session.exec_traced ~opts ~params session qq)
          in
          write_chrome_trace path span);
        if json then
          Fmt.pr "%a@." Obs.Json.pp_pretty
            (Obs.Json.Obj
               [
                 ("schema_version", Obs.Json.Int Analyze.schema_version);
                 ("database", Obs.Json.Str kind);
                 ("scale", Obs.Json.Int scale);
                 ("repeat", Obs.Json.Int repeat);
                 ("queries", Obs.Query_stats.to_json ());
                 ("flight_recorder", Obs.Flight_recorder.to_json ~n:16 ());
               ])
        else begin
          Fmt.pr "%a@." Obs.Query_stats.pp ();
          Fmt.pr "@.flight recorder: %d recorded, %d dropped (capacity %d)@."
            (Obs.Flight_recorder.total_recorded ())
            (Obs.Flight_recorder.dropped ())
            (Obs.Flight_recorder.capacity ());
          List.iter
            (fun r -> Fmt.pr "  %a@." Obs.Flight_recorder.pp_record r)
            (Obs.Flight_recorder.recent ~n:8 ());
          match Obs.Flight_recorder.slow_traces () with
          | [] -> ()
          | slow ->
            Fmt.pr "@.slow-query traces captured:@.";
            List.iter (fun (d, _) -> Fmt.pr "  %s@." d) slow
        end)
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the statistics as machine-readable JSON.")
  in
  let repeat_arg =
    Arg.(
      value & opt int 5
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Rounds through the workload (default 5): the first round \
             plans, later rounds hit the plan cache, so the report shows \
             both calls and cache hits per digest.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a workload and report cumulative per-query statistics \
          (calls, cache hits, rows, latency percentiles, phase split) \
          and the execution flight recorder")
    Term.(
      const go $ db_arg $ scale_arg $ seed_arg $ schema_arg $ load_arg
      $ query_arg $ file_arg $ example_arg $ strategy_arg $ join_order_arg
      $ jobs_arg $ batch_size_arg $ param_arg $ repeat_arg $ json_arg
      $ slow_ms_arg
      $ trace_out_arg $ verbosity_arg)

(* ----------------------------------------------------------------- *)
(* traffic: the open-loop workload driver.  N client domains, each with
   a private session over one shared read-only database, replay a
   seeded scenario mix (ad-hoc / prepared-sweep / replan) — either
   closed loop (back to back) or open loop at a target offered rate —
   and report offered vs achieved throughput plus latency percentiles
   per scenario class. *)

let traffic_cmd =
  let go kind scale seed clients rate duration requests warmup jobs write_pct
      json verbosity =
    setup_logs verbosity;
    try
      if clients < 1 then failwith "--clients must be positive";
      if warmup < 0 then failwith "--warmup must be non-negative";
      (match rate with
      | Some r when not (r > 0.0) -> failwith "--rate must be positive"
      | _ -> ());
      let mode =
        match rate with
        | Some r -> Workload.Driver.Open r
        | None -> Workload.Driver.Closed
      in
      let requests =
        match duration, rate with
        | Some _, None -> failwith "--duration requires --rate (open loop)"
        | Some d, _ when not (d > 0.0) -> failwith "--duration must be positive"
        | Some d, Some r -> max (warmup + 1) (int_of_float (d *. r))
        | None, _ -> requests
      in
      if requests <= warmup then
        failwith "--requests must exceed --warmup";
      let db = make_db kind scale seed in
      let mix = Workload.Driver.mix_for ~write_pct db ~kind in
      (* Unlike run/analyze, the default is jobs=1: the driver
         parallelizes across clients, not inside queries, so client
         domains do not contend for the worker pool. *)
      let opts = Exec_opts.make ~jobs:(Option.value jobs ~default:1) () in
      let cfg =
        Workload.Driver.config ~clients ~mode ~requests ~warmup ~seed ~opts ()
      in
      let report = Workload.Driver.run cfg db mix in
      if json then
        Fmt.pr "%a@." Obs.Json.pp_pretty
          (Obs.Json.Obj
             (match Workload.Driver.report_to_json report with
             | Obs.Json.Obj fields ->
               ("database", Obs.Json.Str kind)
               :: ("scale", Obs.Json.Int scale)
               :: fields
             | other -> [ ("report", other) ]))
      else Fmt.pr "%a@." Workload.Driver.pp_report report;
      0
    with Failure msg ->
      Fmt.epr "pascalr: %s@." msg;
      1
  in
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N"
          ~doc:"Concurrent client domains, each with a private session.")
  in
  let rate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"RPS"
          ~doc:
            "Open-loop offered rate in requests/second (Poisson \
             arrivals).  Without $(b,--rate) the driver runs closed \
             loop: every client fires its next request on completion.")
  in
  let duration_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "duration" ] ~docv:"SEC"
          ~doc:
            "With $(b,--rate): offer traffic for SEC seconds \
             (requests = rate * duration) instead of $(b,--requests).")
  in
  let requests_arg =
    Arg.(
      value & opt int 200
      & info [ "requests" ] ~docv:"N"
          ~doc:"Total requests to schedule, warmup included.")
  in
  let warmup_arg =
    Arg.(
      value & opt int 20
      & info [ "warmup" ] ~docv:"N"
          ~doc:
            "Leading requests executed but excluded from the reported \
             histograms and result multiset.")
  in
  let write_pct_arg =
    Arg.(
      value & opt int 0
      & info [ "write-pct" ] ~docv:"N"
          ~doc:
            "Make roughly N percent of requests committed write \
             transactions into the dedicated traffic_log relation \
             (uniquely keyed, so answers stay identical to a serial \
             run at any client count).  0-90; default 0 (read-only).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the report as machine-readable JSON.")
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:
         "Drive a concurrent-client workload (closed or open loop) and \
          report throughput and latency percentiles per scenario class")
    Term.(
      const go $ db_arg $ scale_arg $ seed_arg $ clients_arg $ rate_arg
      $ duration_arg $ requests_arg $ warmup_arg $ jobs_arg $ write_pct_arg
      $ json_arg $ verbosity_arg)

let explain_cmd =
  let go kind scale seed schema loads query file example strategy =
    with_setup kind scale seed schema loads query file example (fun db q ->
        let st =
          match strategy with
          | Some s -> strategy_of_string s
          | None -> (Planner.choose db q).Planner.d_strategy
        in
        Fmt.pr "%s@." (Explain.explain ~strategy:st db q))
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show the evaluation plan")
    Term.(
      const go $ db_arg $ scale_arg $ seed_arg $ schema_arg $ load_arg
      $ query_arg $ file_arg $ example_arg $ strategy_arg)

let plan_cmd =
  let go kind scale seed schema loads query file example =
    with_setup kind scale seed schema loads query file example (fun db q ->
        let d = Planner.choose db q in
        Fmt.pr "%a@." Planner.pp_decision d)
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Show the planner's strategy decision")
    Term.(
      const go $ db_arg $ scale_arg $ seed_arg $ schema_arg $ load_arg
      $ query_arg $ file_arg $ example_arg)

let normalize_cmd =
  let go kind scale seed schema loads query file example =
    with_setup kind scale seed schema loads query file example (fun db q ->
        Fmt.pr "=== as written ===@.%a@.@." Calculus.pp_query q;
        let sf = Standard_form.compile db q in
        Fmt.pr "=== standard form (adapted, prenex + DNF) ===@.%a@.@."
          Standard_form.pp sf;
        let sf3 = Range_ext.apply db sf in
        Fmt.pr "=== with extended range expressions (S3) ===@.%a@.@."
          Standard_form.pp sf3;
        let plan = Quant_push.apply db (Plan.of_standard_form sf3) in
        Fmt.pr "=== with pushed quantifiers (S4) ===@.%a@." Plan.pp plan)
  in
  Cmd.v
    (Cmd.info "normalize" ~doc:"Show the transformation pipeline")
    Term.(
      const go $ db_arg $ scale_arg $ seed_arg $ schema_arg $ load_arg
      $ query_arg $ file_arg $ example_arg)

(* Execute a statement-level PASCAL/R program (declarations + BEGIN ...
   END), e.g. the paper's Example 4.3; prints the named relations
   afterwards. *)
let script_cmd =
  let go path show verbosity =
    setup_logs verbosity;
    try
      let db = Pascalr_lang.Interp.run_string (read_file path) in
      (match show with
      | [] ->
        Fmt.pr "relations after execution: %a@."
          (Fmt.list ~sep:Fmt.comma Fmt.string)
          (Database.relation_names db)
      | names ->
        List.iter
          (fun n -> Fmt.pr "%a@." Relation.pp (Database.find_relation db n))
          names);
      0
    with
    | Failure msg
    | Pascalr_lang.Elaborate.Elab_error msg
    | Pascalr_lang.Interp.Runtime_error msg ->
      Fmt.epr "pascalr: %s@." msg;
      1
    | Pascalr_lang.Parser.Parse_error (msg, pos) ->
      Fmt.epr "pascalr: parse error at line %d, column %d: %s@."
        pos.Pascalr_lang.Token.line pos.Pascalr_lang.Token.column msg;
      1
    | Relalg.Errors.Unknown_relation r ->
      Fmt.epr "pascalr: unknown relation %s@." r;
      1
  in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PROGRAM" ~doc:"PASCAL/R program file.")
  in
  let show =
    Arg.(
      value & opt_all string []
      & info [ "show" ] ~docv:"REL" ~doc:"Print this relation afterwards.")
  in
  Cmd.v
    (Cmd.info "script" ~doc:"Execute a statement-level PASCAL/R program")
    Term.(const go $ path $ show $ verbosity_arg)

(* ----------------------------------------------------------------- *)
(* serve / client: a line-oriented query and statement server over a
   Unix-domain socket, one domain per connection.  Each connection owns
   a private Session (plan cache) and PREPARE/EXECUTE table over the
   one shared database; queries run inside read transactions (pinned
   snapshots), statements inside write transactions, so concurrent
   clients always see committed states and mutations land atomically.

   Protocol: one request per line; the response is zero or more lines
   followed by a line containing a single ".".  "quit" closes the
   connection. *)

(* Conflict retries of one statement: bounded, with exponential backoff
   and full jitter (a uniform draw below a doubling ceiling), so writers
   that keep colliding spread out instead of retrying in lockstep. *)
let statement_retries = 16

let retry_backoff_s n =
  Random.float (Float.min 0.05 (0.0005 *. Float.pow 2.0 (float_of_int n)))

let serve_request db session prepared line =
  match Pascalr_lang.Elaborate.query_of_string db line with
  | q ->
    let rel = Session.read session (fun txn -> Session.Txn.exec txn q) in
    Fmt.str "%a@?" Relation.pp rel
  | exception
      ( Pascalr_lang.Parser.Parse_error _ | Pascalr_lang.Lexer.Lex_error _
      | Pascalr_lang.Elaborate.Elab_error _ ) ->
    (* Not a query: execute as a statement inside a write transaction,
       retrying first-committer-wins conflicts up to [statement_retries]
       times; past that the conflict is the request's error line. *)
    let stmt = Pascalr_lang.Parser.stmt_of_string line in
    let rec attempt n =
      try
        Session.write session (fun txn ->
            Pascalr_lang.Interp.exec
              (Pascalr_lang.Interp.txn_env ~prepared txn)
              stmt);
        "ok"
      with Errors.Txn_conflict _ when n < statement_retries ->
        Obs.Metrics.incr "txn.statement_retries";
        Unix.sleepf (retry_backoff_s n);
        attempt (n + 1)
    in
    attempt 0

(* The class and message of a request that failed without taking the
   connection down: every substrate error, the language front end's
   errors, and argument errors. *)
let request_error = function
  | Pascalr_lang.Parser.Parse_error (msg, _) -> Some ("parse", msg)
  | Pascalr_lang.Lexer.Lex_error (msg, _) -> Some ("lex", msg)
  | Pascalr_lang.Elaborate.Elab_error msg -> Some ("elaborate", msg)
  | Pascalr_lang.Interp.Runtime_error msg -> Some ("runtime", msg)
  | Failure msg -> Some ("failure", msg)
  | Invalid_argument msg -> Some ("invalid argument", msg)
  | Errors.Type_error msg -> Some ("type", msg)
  | Errors.Schema_error msg -> Some ("schema", msg)
  | Errors.Duplicate_key msg -> Some ("duplicate key", msg)
  | Errors.Unknown_relation msg -> Some ("unknown relation", msg)
  | Errors.Unknown_attribute msg -> Some ("unknown attribute", msg)
  | Errors.Dangling_reference msg -> Some ("dangling reference", msg)
  | Errors.Io_error msg -> Some ("io", msg)
  | Errors.Corruption msg -> Some ("corruption", msg)
  | Errors.Frozen msg -> Some ("frozen", msg)
  | Errors.Txn_conflict msg -> Some ("conflict", msg)
  | Prepared.Unbound_parameter p | Prepared.Unknown_parameter p ->
    Some ("parameter", p)
  | _ -> None

(* One line per failed request, newlines folded, so an error message
   can never be read as a result row. *)
let error_line cls msg =
  "error: " ^ cls ^ ": "
  ^ String.map (function '\n' | '\r' -> ' ' | c -> c) msg

let handle_conn db fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let session = Session.create db in
  let prepared = Hashtbl.create 8 in
  let respond text =
    String.split_on_char '\n' text
    |> List.iter (fun l -> if l <> "" then output_string oc (l ^ "\n"));
    output_string oc ".\n";
    flush oc
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
      let line = String.trim line in
      if line = "quit" then ()
      else begin
        if line <> "" then begin
          match serve_request db session prepared line with
          | text -> respond text
          | exception e -> (
            match request_error e with
            | Some (cls, msg) -> respond (error_line cls msg)
            | None -> raise e)
        end;
        loop ()
      end
  in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) loop

let serve_cmd =
  let go kind scale seed file socket max_conns verbosity =
    setup_logs verbosity;
    try
      let db =
        match file with
        | Some path when Sys.file_exists path -> Database.open_durable ~path
        | Some path ->
          let db = make_db kind scale seed in
          Database.attach_wal db ~path;
          db
        | None -> make_db kind scale seed
      in
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_UNIX socket);
      Unix.listen sock 16;
      Fmt.pr "pascalr: serving on %s (%s)@." socket
        (if Database.durable db then "durable" else "in-memory");
      Fmt.flush Fmt.stdout ();
      let rec accept_loop n doms =
        if match max_conns with Some m -> n >= m | None -> false then doms
        else begin
          let fd, _ = Unix.accept sock in
          let d = Domain.spawn (fun () -> handle_conn db fd) in
          accept_loop (n + 1) (d :: doms)
        end
      in
      let doms = accept_loop 0 [] in
      List.iter Domain.join doms;
      Unix.close sock;
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      if Database.durable db then Database.close db;
      0
    with
    | Failure msg ->
      Fmt.epr "pascalr: %s@." msg;
      1
    | Errors.Io_error msg ->
      Fmt.epr "pascalr: I/O fault: %s@." msg;
      1
    | Errors.Corruption msg ->
      Fmt.epr "pascalr: corruption detected: %s@." msg;
      1
    | Unix.Unix_error (e, op, arg) ->
      Fmt.epr "pascalr: %s %s: %s@." op arg (Unix.error_message e);
      1
  in
  let file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"PATH"
          ~doc:
            "Serve a durable database: open PATH (snapshot + \
             write-ahead log, replaying the log if the last run \
             crashed) if it exists, otherwise seed it from the sample \
             database and attach a WAL.  Without $(b,--file) the \
             database is in-memory.")
  in
  let socket_arg =
    Arg.(
      value
      & opt string "/tmp/pascalr.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")
  in
  let max_conns_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Exit after serving N connections (smoke tests); default: \
             serve until killed.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve queries and statements over a Unix-domain socket, one \
          domain per connection, with snapshot-isolated transactions")
    Term.(
      const go $ db_arg $ scale_arg $ seed_arg $ file_arg $ socket_arg
      $ max_conns_arg $ verbosity_arg)

let client_cmd =
  let go socket =
    try
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_UNIX socket);
      let ic = Unix.in_channel_of_descr sock in
      let oc = Unix.out_channel_of_descr sock in
      let rec read_response () =
        match input_line ic with
        | "." -> ()
        | line ->
          print_endline line;
          read_response ()
        | exception End_of_file -> ()
      in
      (try
         while true do
           let line = input_line stdin in
           output_string oc (line ^ "\n");
           flush oc;
           if String.trim line <> "" && String.trim line <> "quit" then
             read_response ()
         done
       with End_of_file -> ());
      (try
         output_string oc "quit\n";
         flush oc
       with Sys_error _ -> ());
      Unix.close sock;
      0
    with Unix.Unix_error (e, op, arg) ->
      Fmt.epr "pascalr: %s %s: %s@." op arg (Unix.error_message e);
      1
  in
  let socket_arg =
    Arg.(
      value
      & opt string "/tmp/pascalr.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send stdin lines to a pascalr serve socket and print each \
          response")
    Term.(const go $ socket_arg)

let () =
  (* Quiesce pool workers on every exit path (including subcommand
     failures), so no idle domain taxes final GC sections. *)
  at_exit Relalg.Domain_pool.shutdown;
  let info =
    Cmd.info "pascalr" ~version:"1.0.0"
      ~doc:"PASCAL/R relational query processing strategies (SIGMOD 1982)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            run_cmd;
            analyze_cmd;
            stats_cmd;
            traffic_cmd;
            serve_cmd;
            client_cmd;
            explain_cmd;
            plan_cmd;
            normalize_cmd;
            script_cmd;
          ]))
