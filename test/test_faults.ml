(* Differential fault testing: the same discipline test_properties.ml
   applies to query semantics (every strategy must equal Naive_eval),
   applied to durability.  Random query workloads run under randomly
   armed failpoints; every outcome must be one of

     - the exact fault-free answer (the fault never fired, or the
       storage layer recovered by invalidate-and-rebuild), or
     - a typed error (Errors.Io_error / Errors.Corruption), with the
       on-disk snapshot byte-identical to the last committed state.

   Silent wrong answers and untyped crashes are the two failure modes
   this suite exists to rule out.

   The CI fault-matrix job reruns the randomized properties under
   several seeds via the PASCALR_FAULT_SEED environment variable (an
   offset mixed into every generated seed; logged below for
   reproduction). *)

open Relalg

(* One-shot autocommit through a throwaway session: the migration shim
   for call sites that evaluate a query against a bare database. *)
let exec_q ?opts db q =
  Pascalr.Session.exec ?opts (Pascalr.Session.create db) q


let seed_offset =
  match Sys.getenv_opt "PASCALR_FAULT_SEED" with
  | Some s -> (try int_of_string (String.trim s) with _ -> 0)
  | None -> 0

let () =
  if seed_offset <> 0 then
    Printf.printf "test_faults: PASCALR_FAULT_SEED offset %d\n%!" seed_offset

let with_failpoints f =
  Fun.protect ~finally:Failpoint.disarm_all (fun () ->
      Failpoint.disarm_all ();
      f ())

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let temp_snapshot () = Filename.temp_file "pascalr_fault" ".pascalrdb"

let cleanup path =
  if Sys.file_exists path then Sys.remove path;
  if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp")

(* --------------------------------------------------------------- *)
(* Trigger semantics *)

let test_trigger_nth () =
  with_failpoints (fun () ->
      Failpoint.arm "t.site" (Failpoint.Nth 3);
      let fires = List.init 6 (fun _ -> Failpoint.should_fire "t.site") in
      Alcotest.(check (list bool))
        "fires exactly on the 3rd hit"
        [ false; false; true; false; false; false ]
        fires;
      Alcotest.(check int) "6 hits counted" 6 (Failpoint.hit_count "t.site");
      Alcotest.(check int) "1 fire counted" 1 (Failpoint.fire_count "t.site"))

let test_trigger_every () =
  with_failpoints (fun () ->
      Failpoint.arm "t.site" (Failpoint.Every 2);
      let fires = List.init 6 (fun _ -> Failpoint.should_fire "t.site") in
      Alcotest.(check (list bool))
        "fires on every 2nd hit"
        [ false; true; false; true; false; true ]
        fires)

let test_trigger_seeded_deterministic () =
  with_failpoints (fun () ->
      let pattern seed =
        Failpoint.arm "t.site" (Failpoint.Seeded { seed; prob = 0.3 });
        List.init 64 (fun _ -> Failpoint.should_fire "t.site")
      in
      let a = pattern 42 and b = pattern 42 and c = pattern 43 in
      Alcotest.(check (list bool)) "same seed, same schedule" a b;
      Alcotest.(check bool) "some hit fires at p=0.3 over 64 hits" true
        (List.exists Fun.id a);
      Alcotest.(check bool) "different seed, different schedule" true (a <> c))

let test_trigger_specs () =
  Alcotest.(check bool) "nth" true (Failpoint.trigger_of_string "nth:4" = Failpoint.Nth 4);
  Alcotest.(check bool) "every" true
    (Failpoint.trigger_of_string "every:7" = Failpoint.Every 7);
  Alcotest.(check bool) "prob with seed" true
    (Failpoint.trigger_of_string "prob:0.25:9"
    = Failpoint.Seeded { seed = 9; prob = 0.25 });
  List.iter
    (fun bad ->
      match Failpoint.trigger_of_string bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Invalid_argument _ -> ())
    [ "nth:0"; "every:-1"; "prob:1.5"; "sometimes"; "nth:x"; "" ];
  (* round trips *)
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Failpoint.trigger_to_string t)
        true
        (Failpoint.trigger_of_string (Failpoint.trigger_to_string t) = t))
    [ Failpoint.Nth 1; Failpoint.Every 5; Failpoint.Seeded { seed = 3; prob = 0.5 } ]

let test_unarmed_is_free () =
  with_failpoints (fun () ->
      Alcotest.(check bool) "nothing armed" false (Failpoint.any_armed ());
      Alcotest.(check bool) "unarmed site never fires" false
        (Failpoint.should_fire "heap.read.short");
      Alcotest.(check int) "no hits counted when unarmed" 0
        (Failpoint.hit_count "heap.read.short"))

(* --------------------------------------------------------------- *)
(* Per-site faults and recovery *)

let status =
  { Value.enum_name = "statustype"; labels = [| "student"; "professor" |] }

let schema =
  Schema.make
    [
      Schema.attr "id" Vtype.int_full;
      Schema.attr "name" Vtype.string_any;
      Schema.attr "st" (Vtype.TEnum status);
    ]
    ~key:[ "id" ]

let sample_tuple n =
  Tuple.of_list
    [
      Value.int n;
      Value.str (Printf.sprintf "name-%d" n);
      Value.enum_ordinal status (n land 1);
    ]

let paged_relation n =
  let r = Relation.create ~name:"r" schema in
  for i = 1 to n do
    Relation.insert r (sample_tuple i)
  done;
  let pool = Buffer_pool.create ~capacity:4 in
  Relation.attach_storage r ~pool;
  (r, pool)

let scan_count r =
  let n = ref 0 in
  Relation.scan (fun _ -> incr n) r;
  !n

let test_torn_write_recovery () =
  with_failpoints (fun () ->
      let r, _pool = paged_relation 50 in
      Failpoint.arm "heap.write.partial" (Failpoint.Nth 1);
      (* The insert fails typed, but the key table holds the tuple and
         the backing is marked dirty. *)
      (match Relation.insert r (sample_tuple 51) with
      | () -> Alcotest.fail "expected Io_error from torn write"
      | exception Errors.Io_error _ -> ());
      Failpoint.disarm "heap.write.partial";
      (* The next scan rebuilds the damaged file and sees all 51. *)
      Alcotest.(check int) "scan after torn write" 51 (scan_count r);
      Alcotest.(check bool) "tuple survived via key table" true
        (Relation.mem_tuple r (sample_tuple 51)))

let test_short_read_recovery () =
  with_failpoints (fun () ->
      let r, _pool = paged_relation 60 in
      let expected = Relation.to_list r in
      Failpoint.arm "heap.read.short" (Failpoint.Nth 1);
      (* Fires once mid-scan; the buffered scan rebuilds and retries. *)
      let seen = ref [] in
      Relation.scan (fun t -> seen := t :: !seen) r;
      Alcotest.(check int) "all tuples delivered exactly once"
        (List.length expected) (List.length !seen);
      Alcotest.(check bool) "recovery rebuild counted" true
        (Failpoint.fire_count "heap.read.short" = 1))

let test_short_read_persistent_fails_typed () =
  with_failpoints (fun () ->
      let r, _pool = paged_relation 60 in
      Failpoint.arm "heap.read.short" (Failpoint.Every 1);
      match scan_count r with
      | _ -> Alcotest.fail "expected Corruption to surface"
      | exception Errors.Corruption _ -> ())

let test_codec_corrupt_recovery () =
  with_failpoints (fun () ->
      let r, _pool = paged_relation 40 in
      Failpoint.arm "codec.decode.corrupt" (Failpoint.Nth 5);
      Alcotest.(check int) "recovered scan sees all tuples" 40 (scan_count r);
      Failpoint.disarm "codec.decode.corrupt";
      Failpoint.arm "codec.decode.corrupt" (Failpoint.Every 1);
      match scan_count r with
      | _ -> Alcotest.fail "expected Corruption"
      | exception Errors.Corruption _ -> ())

let test_evict_io_fails_typed () =
  with_failpoints (fun () ->
      let pool = Buffer_pool.create ~capacity:2 in
      ignore (Buffer_pool.access pool ~file:1 ~page:0);
      ignore (Buffer_pool.access pool ~file:1 ~page:1);
      Failpoint.arm "pool.evict.io" (Failpoint.Nth 1);
      (match Buffer_pool.access pool ~file:1 ~page:2 with
      | _ -> Alcotest.fail "expected Io_error from eviction"
      | exception Errors.Io_error _ -> ());
      (* The failed eviction left the pool consistent: the victim stays
         resident, the new page was never admitted. *)
      Alcotest.(check int) "resident unchanged" 2 (Buffer_pool.resident_count pool);
      Failpoint.disarm "pool.evict.io";
      Alcotest.(check bool) "pool usable again" false
        (Buffer_pool.access pool ~file:1 ~page:2))

let test_checksum_detects_out_of_band_damage () =
  (* Damage a page behind the storage layer's back: a torn write whose
     checksum was never refreshed.  The validated read must refuse the
     page with a typed Corruption even with no failpoint armed at read
     time... but streaming mode only validates; recovery needs the
     framework active, so check the typed error surfaces. *)
  with_failpoints (fun () ->
      let hf = Heap_file.create () in
      let pool = Buffer_pool.create ~capacity:4 in
      Heap_file.append hf (Codec.encode_tuple schema (sample_tuple 1));
      Failpoint.arm "heap.write.partial" (Failpoint.Nth 1);
      (match Heap_file.append hf (Codec.encode_tuple schema (sample_tuple 2)) with
      | () -> Alcotest.fail "expected torn write"
      | exception Errors.Io_error _ -> ());
      Failpoint.disarm "heap.write.partial";
      match Heap_file.iter ~pool hf (fun _ -> ()) with
      | () -> Alcotest.fail "expected checksum mismatch"
      | exception Errors.Corruption _ -> ())

(* --------------------------------------------------------------- *)
(* Atomic save *)

let db_equal a b =
  Database.relation_names a = Database.relation_names b
  && List.for_all
       (fun n ->
         Relation.equal_set (Database.find_relation a n)
           (Database.find_relation b n))
       (Database.relation_names a)
  && List.map (fun i -> i.Value.enum_name) (Database.enums a)
     = List.map (fun i -> i.Value.enum_name) (Database.enums b)
  && Database.secondary_index_list a = Database.secondary_index_list b

let test_save_load_roundtrip () =
  with_failpoints (fun () ->
      let db = Workload.Random_query.tiny_db 7 in
      ignore (Database.declare_index db "papers" ~on:[ "penr" ] : Secondary_index.t);
      let path = temp_snapshot () in
      Fun.protect
        ~finally:(fun () -> cleanup path)
        (fun () ->
          Database.save db ~path;
          let db2 = Database.load ~path in
          Alcotest.(check bool) "load equals save" true (db_equal db db2);
          (* Determinism: an equal database snapshots to identical bytes. *)
          let path2 = temp_snapshot () in
          Fun.protect
            ~finally:(fun () -> cleanup path2)
            (fun () ->
              Database.save db2 ~path:path2;
              Alcotest.(check bool) "byte-identical resave" true
                (String.equal (read_file path) (read_file path2)))))

let test_save_crash_is_atomic () =
  with_failpoints (fun () ->
      let db = Workload.Random_query.tiny_db 11 in
      let path = temp_snapshot () in
      Fun.protect
        ~finally:(fun () -> cleanup path)
        (fun () ->
          Database.save db ~path;
          let committed = read_file path in
          (* Change the database, then crash the save at both crash
             points in turn; the committed bytes must survive. *)
          Relation.clear (Database.find_relation db "papers");
          List.iter
            (fun nth ->
              Failpoint.arm "db.save.crash" (Failpoint.Nth nth);
              (match Database.save db ~path with
              | () -> Alcotest.fail "expected crash during save"
              | exception Errors.Io_error _ -> ());
              Failpoint.disarm "db.save.crash";
              Alcotest.(check bool)
                (Printf.sprintf "crash point %d left committed bytes" nth)
                true
                (String.equal committed (read_file path)))
            [ 1; 2 ];
          (* With the fault gone, the save lands and is loadable. *)
          Database.save db ~path;
          Alcotest.(check bool) "post-crash save differs from committed" true
            (not (String.equal committed (read_file path)));
          Alcotest.(check bool) "post-crash save loads equal" true
            (db_equal db (Database.load ~path))))

let test_load_rejects_damage () =
  with_failpoints (fun () ->
      let db = Workload.Random_query.tiny_db 13 in
      let path = temp_snapshot () in
      Fun.protect
        ~finally:(fun () -> cleanup path)
        (fun () ->
          Database.save db ~path;
          let bytes = Bytes.of_string (read_file path) in
          let expect_corruption label data =
            let oc = open_out_bin path in
            output_bytes oc data;
            close_out oc;
            match Database.load ~path with
            | _ -> Alcotest.failf "%s: expected Corruption" label
            | exception Errors.Corruption _ -> ()
          in
          (* Flip one payload byte: checksum mismatch. *)
          let flipped = Bytes.copy bytes in
          let mid = Bytes.length flipped / 2 in
          Bytes.set flipped mid
            (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x40));
          expect_corruption "bit flip" flipped;
          (* Truncate: short file. *)
          expect_corruption "truncation"
            (Bytes.sub bytes 0 (Bytes.length bytes / 2));
          (* Garbage magic. *)
          expect_corruption "bad magic" (Bytes.of_string "NOTADATABASE");
          (* Earlier formats' magics over an intact checksum — only the
             magic differs from a valid file: PASCALRDB2 carried a
             permanent-index section, PASCALRDB3 an index kind tag. *)
          Alcotest.(check string) "current magic" "PASCALRDB4"
            (Bytes.sub_string bytes 0 10);
          List.iter
            (fun magic ->
              let previous = Bytes.copy bytes in
              Bytes.blit_string magic 0 previous 0 10;
              let n = Bytes.length previous in
              let sum = Codec.adler32 previous ~pos:0 ~len:(n - 4) in
              for i = 0 to 3 do
                Bytes.set previous (n - 4 + i)
                  (Char.chr ((sum lsr (8 * i)) land 0xFF))
              done;
              expect_corruption ("previous format " ^ magic) previous)
            [ "PASCALRDB2"; "PASCALRDB3" ]))

(* --------------------------------------------------------------- *)
(* The differential property: random workload x random failpoint *)

let sites_and_triggers rng =
  let site = Workload.Prng.pick rng Failpoint.standard_sites in
  let trigger =
    match Workload.Prng.int rng 3 with
    | 0 -> Failpoint.Nth (1 + Workload.Prng.int rng 5)
    | 1 -> Failpoint.Every (1 + Workload.Prng.int rng 4)
    | _ ->
      Failpoint.Seeded
        {
          seed = Workload.Prng.int rng 10_000;
          prob = 0.05 +. (0.4 *. float_of_int (Workload.Prng.int rng 10) /. 10.0);
        }
  in
  let extra =
    if Workload.Prng.flip rng 0.3 then
      [ (Workload.Prng.pick rng Failpoint.standard_sites, Failpoint.Every 3) ]
    else []
  in
  (site, trigger) :: extra

(* [jobs = 4] runs the same property through the domain pool (with
   par_threshold 0 so even the tiny databases partition): a fault that
   fires while a worker holds a task must still surface at the join as
   the typed error the serial engine reports — never as a Domain
   teardown crash — and never as a silently different answer. *)
let fault_differential ?(jobs = 1) seed0 =
  let opts_of strategy =
    if jobs <= 1 then Pascalr.Exec_opts.make ~strategy ()
    else Pascalr.Exec_opts.make ~strategy ~jobs ~par_threshold:0 ()
  in
  let seed = seed0 + (seed_offset * 1_000_003) in
  with_failpoints (fun () ->
      let rng = Workload.Prng.create (seed * 131) in
      let db = Workload.Random_query.tiny_db ((seed * 48611) + 5) in
      ignore (Database.attach_storage db ~pool_pages:(2 + Workload.Prng.int rng 6));
      (* Half the runs declare secondary indexes, so the armed
         index.save.crash / index.load.corrupt sites fire against real
         catalog state — and the indexed access paths run under the
         same heap/pool faults as the scans. *)
      if Workload.Prng.flip rng 0.5 then
        List.iter
          (fun rel ->
            match Workload.Random_query.rel_attrs rel with
            | (a, _) :: _ ->
              ignore (Database.declare_index db rel ~on:[ a ] : Secondary_index.t)
            | [] -> ())
          Workload.Random_query.relations;
      let q = Workload.Random_query.generate db (seed + 17) in
      let sname, strategy =
        Workload.Prng.pick rng Pascalr.Strategy.all_presets
      in
      (* Fault-free reference answer, and the committed snapshot. *)
      let expected = exec_q ~opts:(opts_of strategy) db q in
      let naive = Pascalr.Naive_eval.run db q in
      if not (Relation.equal_set expected naive) then
        QCheck.Test.fail_reportf "strategy %s wrong without faults, seed %d"
          sname seed;
      let path = temp_snapshot () in
      Fun.protect
        ~finally:(fun () -> cleanup path)
        (fun () ->
          Database.save db ~path;
          let committed = read_file path in
          let armed = sites_and_triggers rng in
          List.iter (fun (site, trig) -> Failpoint.arm site trig) armed;
          let describe () =
            String.concat ", "
              (List.map
                 (fun (s, t) -> s ^ "=" ^ Failpoint.trigger_to_string t)
                 (Failpoint.armed_sites ()))
          in
          (* Run the workload under faults: the query, then a save
             attempt.  Every outcome must be fault-free-equal or a
             typed error. *)
          (match exec_q ~opts:(opts_of strategy) db q with
          | actual ->
            if not (Relation.equal_set expected actual) then
              QCheck.Test.fail_reportf
                "silent wrong answer under faults [%s], strategy %s, seed %d"
                (describe ()) sname seed
          | exception (Errors.Io_error _ | Errors.Corruption _) -> ()
          | exception e ->
            QCheck.Test.fail_reportf
              "untyped failure %s under faults [%s], seed %d"
              (Printexc.to_string e) (describe ()) seed);
          let saved_ok =
            match Database.save db ~path with
            | () -> true
            | exception (Errors.Io_error _ | Errors.Corruption _) -> false
            | exception e ->
              QCheck.Test.fail_reportf
                "untyped save failure %s under faults [%s], seed %d"
                (Printexc.to_string e) (describe ()) seed
          in
          Failpoint.disarm_all ();
          let on_disk = read_file path in
          if saved_ok then begin
            (* A completed save must be a valid, loadable snapshot of
               the current database. *)
            match Database.load ~path with
            | db2 ->
              if not (db_equal db db2) then
                QCheck.Test.fail_reportf
                  "committed snapshot diverges from database, seed %d" seed;
              (* Persisted (or damage-rebuilt) secondary indexes must
                 describe exactly the loaded heaps. *)
              List.iter
                (fun (rel_name, on) ->
                  let rel = Database.find_relation db2 rel_name in
                  List.iter
                    (fun ix ->
                      if not (Relation.index_consistent rel ix) then
                        QCheck.Test.fail_reportf
                          "loaded index %s(%s) inconsistent with its heap, \
                           seed %d"
                          rel_name (String.concat "," on) seed)
                    (Database.secondary_indexes db2 rel_name))
                (Database.secondary_index_list db2)
            | exception e ->
              QCheck.Test.fail_reportf
                "completed save unreadable (%s), seed %d"
                (Printexc.to_string e) seed
          end
          else if not (String.equal committed on_disk) then
            QCheck.Test.fail_reportf
              "failed save mutated the committed snapshot [%s], seed %d"
              (describe ()) seed;
          true))

let test_fault_differential =
  QCheck.Test.make
    ~name:
      "differential: random (workload, failpoint) pairs are fault-free-equal \
       or typed + committed-intact"
    ~count:220
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fault_differential ?jobs:None)

let test_fault_differential_parallel =
  QCheck.Test.make
    ~name:
      "differential under jobs=4: faults stay typed at the pool join, \
       committed snapshot intact"
    ~count:60
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fault_differential ~jobs:4)

(* --------------------------------------------------------------- *)
(* WAL crash differential: replay recovers exactly the committed
   transactions *)

let wlog_schema =
  Schema.make
    [ Schema.attr "wid" Vtype.int_full; Schema.attr "wval" Vtype.int_full ]
    ~key:[ "wid" ]

let wlog_tuple k v = Tuple.of_list [ Value.int k; Value.int v ]

let cleanup_durable path =
  cleanup path;
  let wal = path ^ ".wal" in
  if Sys.file_exists wal then Sys.remove wal

(* Random committed transactions against a durable database, with a WAL
   or snapshot failpoint armed partway through the sequence.  Every
   commit either returns — and is recorded in a model of the committed
   state — or raises a typed error and must leave no durable trace.
   Reopening the path replays the log; the recovered database must match
   the model exactly, compared byte-for-byte through the canonical
   (key-sorted) snapshot encoding. *)
let wal_crash_differential seed0 =
  let seed = seed0 + (seed_offset * 1_000_003) in
  with_failpoints (fun () ->
      let rng = Workload.Prng.create ((seed * 977) + 1) in
      let base_seed = (seed * 31397) + 3 in
      let db = Workload.Random_query.tiny_db base_seed in
      ignore (Database.declare_relation db ~name:"wlog" wlog_schema);
      let path = temp_snapshot () in
      Fun.protect
        ~finally:(fun () -> cleanup_durable path)
        (fun () ->
          Database.attach_wal db ~path;
          (* The committed state of wlog, maintained only on commit
             success; failed commits must be invisible after recovery. *)
          let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
          let next = ref 0 in
          let txns = 5 + Workload.Prng.int rng 8 in
          let crash_at = Workload.Prng.int rng txns in
          let site =
            Workload.Prng.pick rng
              [
                "wal.append.crash";
                "wal.fsync.crash";
                "wal.checkpoint.crash";
                "db.save.crash";
              ]
          in
          for i = 0 to txns - 1 do
            if i = crash_at then
              Failpoint.arm site (Failpoint.Nth (1 + Workload.Prng.int rng 2));
            let inserts =
              List.init
                (1 + Workload.Prng.int rng 3)
                (fun _ ->
                  let k = !next in
                  incr next;
                  (k, Workload.Prng.int rng 1000))
            in
            let live = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
            let deletes =
              if live <> [] && Workload.Prng.flip rng 0.3 then
                [ Workload.Prng.pick rng live ]
              else []
            in
            (match
               Database.with_write db (fun txn ->
                   List.iter
                     (fun (k, v) ->
                       Database.Txn.insert txn "wlog" (wlog_tuple k v))
                     inserts;
                   List.iter
                     (fun k -> Database.Txn.delete_key txn "wlog" [ Value.int k ])
                     deletes)
             with
            | () ->
              List.iter (fun (k, v) -> Hashtbl.replace model k v) inserts;
              List.iter (fun k -> Hashtbl.remove model k) deletes
            | exception (Errors.Io_error _ | Errors.Corruption _) -> ()
            | exception e ->
              QCheck.Test.fail_reportf
                "untyped commit failure %s under %s, seed %d"
                (Printexc.to_string e) site seed);
            (* Occasional checkpoints give wal.checkpoint.crash and
               db.save.crash something to fire at; a failed checkpoint
               must not lose committed state either. *)
            if Workload.Prng.flip rng 0.3 then (
              match Database.checkpoint db with
              | () -> ()
              | exception (Errors.Io_error _ | Errors.Corruption _) -> ()
              | exception e ->
                QCheck.Test.fail_reportf
                  "untyped checkpoint failure %s under %s, seed %d"
                  (Printexc.to_string e) site seed)
          done;
          Failpoint.disarm_all ();
          (* "kill -9": abandon the open handle and recover from disk. *)
          let recovered = Database.open_durable ~path in
          let reference = Workload.Random_query.tiny_db base_seed in
          let wl =
            Database.declare_relation reference ~name:"wlog" wlog_schema
          in
          Hashtbl.iter (fun k v -> Relation.insert wl (wlog_tuple k v)) model;
          if not (db_equal recovered reference) then
            QCheck.Test.fail_reportf
              "recovered state diverges from committed model under %s, seed %d"
              site seed;
          if
            not
              (Bytes.equal
                 (Database.snapshot_bytes recovered)
                 (Database.snapshot_bytes reference))
          then
            QCheck.Test.fail_reportf
              "recovered snapshot not byte-identical to committed model under \
               %s, seed %d"
              site seed;
          Database.close recovered;
          true))

let test_wal_crash_differential =
  QCheck.Test.make
    ~name:
      "WAL differential: crash + replay recovers exactly the committed \
       transactions, byte-identically"
    ~count:120
    QCheck.(make Gen.(int_range 0 1_000_000))
    wal_crash_differential

(* --------------------------------------------------------------- *)
(* Snapshot isolation: concurrent readers only ever see committed
   epoch vectors *)

(* A writer commits pairs of rows atomically (wids 2i and 2i+1 in one
   transaction) while reader domains repeatedly pin snapshots.  Every
   snapshot must hold a committed prefix: even cardinality c with
   exactly the wids 0..c-1 present — an odd count or a torn prefix
   would mean a reader observed a transaction mid-install. *)
let snapshot_readers_see_committed_prefixes seed0 =
  let db = Database.create () in
  ignore (Database.declare_relation db ~name:"pairs" wlog_schema);
  let writes = 40 + (seed0 mod 20) in
  let stop = Atomic.make false in
  let reader () =
    let bad = ref None in
    while not (Atomic.get stop) do
      Database.with_read db (fun txn ->
          let v = Database.Txn.view txn in
          let r = Database.find_relation v "pairs" in
          let c = Relation.cardinality r in
          if c land 1 = 1 then bad := Some (Printf.sprintf "odd count %d" c)
          else if
            c > 0 && Relation.find_key r [ Value.int (c - 1) ] = None
          then bad := Some (Printf.sprintf "count %d but wid %d absent" c (c - 1))
          else if Relation.find_key r [ Value.int c ] <> None then
            bad := Some (Printf.sprintf "count %d but wid %d present" c c))
    done;
    !bad
  in
  let readers = List.init 3 (fun _ -> Domain.spawn reader) in
  for i = 0 to writes - 1 do
    Database.with_write db (fun txn ->
        Database.Txn.insert txn "pairs" (wlog_tuple (2 * i) i);
        Database.Txn.insert txn "pairs" (wlog_tuple ((2 * i) + 1) i))
  done;
  Atomic.set stop true;
  let bads = List.filter_map Domain.join readers in
  (match bads with
  | [] -> ()
  | msg :: _ ->
    QCheck.Test.fail_reportf "reader saw an uncommitted state: %s, seed %d" msg
      seed0);
  true

let test_snapshot_readers =
  QCheck.Test.make
    ~name:
      "snapshot isolation: concurrent readers observe exactly committed \
       epoch vectors (atomic pair commits)"
    ~count:15
    QCheck.(make Gen.(int_range 0 1_000_000))
    snapshot_readers_see_committed_prefixes

let suite =
  [
    ( "faults",
      [
        Alcotest.test_case "trigger nth" `Quick test_trigger_nth;
        Alcotest.test_case "trigger every" `Quick test_trigger_every;
        Alcotest.test_case "trigger seeded deterministic" `Quick
          test_trigger_seeded_deterministic;
        Alcotest.test_case "trigger spec parsing" `Quick test_trigger_specs;
        Alcotest.test_case "unarmed sites are free" `Quick test_unarmed_is_free;
        Alcotest.test_case "torn write: typed error + rebuild" `Quick
          test_torn_write_recovery;
        Alcotest.test_case "short read: invalidate-and-rebuild recovery" `Quick
          test_short_read_recovery;
        Alcotest.test_case "persistent short read fails typed" `Quick
          test_short_read_persistent_fails_typed;
        Alcotest.test_case "codec corruption: recovery then typed" `Quick
          test_codec_corrupt_recovery;
        Alcotest.test_case "eviction I/O failure is typed + consistent" `Quick
          test_evict_io_fails_typed;
        Alcotest.test_case "checksum catches out-of-band damage" `Quick
          test_checksum_detects_out_of_band_damage;
        Alcotest.test_case "snapshot save/load round trip" `Quick
          test_save_load_roundtrip;
        Alcotest.test_case "save crash is atomic at both crash points" `Quick
          test_save_crash_is_atomic;
        Alcotest.test_case "load rejects damaged snapshots" `Quick
          test_load_rejects_damage;
        QCheck_alcotest.to_alcotest test_fault_differential;
        QCheck_alcotest.to_alcotest test_fault_differential_parallel;
        QCheck_alcotest.to_alcotest test_wal_crash_differential;
        QCheck_alcotest.to_alcotest test_snapshot_readers;
      ] );
  ]
