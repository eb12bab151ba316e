(* The transactional Session surface: snapshot visibility, own-write
   reads, abort semantics, first-committer-wins conflicts, and the
   frozen committed states of a durable database. *)

open Pascalr
open Relalg

let mk_db () = Workload.Suppliers.generate Workload.Suppliers.default_params

(* All supplier numbers — snr is the key, so the result cardinality
   counts suppliers exactly. *)
let all_snrs =
  {
    Calculus.free = [ ("s", Calculus.base "suppliers") ];
    select = [ ("s", "snr") ];
    body = Calculus.F_true;
  }

let supplier n name db =
  Tuple.of_list [ Value.int n; Value.str name; Workload.Suppliers.london db ]

let count txn = Relation.cardinality (Session.Txn.exec txn all_snrs)

(* ---------------------------------------------------------------- *)

let test_write_then_read () =
  let db = mk_db () in
  let s = Session.create db in
  let before = Session.read s count in
  Session.write s (fun txn ->
      Session.Txn.insert txn "suppliers" (supplier 900 "newcomer" db));
  Alcotest.(check int)
    "committed write visible to a later read" (before + 1)
    (Session.read s count);
  Alcotest.(check int)
    "and to autocommit exec" (before + 1)
    (Relation.cardinality (Session.exec s all_snrs))

let test_own_writes_visible_buffered () =
  let db = mk_db () in
  let s = Session.create db in
  let before = Session.read s count in
  Session.write s (fun txn ->
      Session.Txn.insert txn "suppliers" (supplier 901 "insider" db);
      Alcotest.(check int)
        "own buffered write visible inside the transaction" (before + 1)
        (count txn);
      (* A concurrent reader pins the committed state: the buffered
         insert is invisible until commit. *)
      Alcotest.(check int)
        "uncommitted write invisible to other sessions" before
        (Session.read (Session.create db) count));
  Alcotest.(check int) "visible after commit" (before + 1) (Session.read s count)

exception Changed_my_mind

let test_abort_discards () =
  let db = mk_db () in
  let s = Session.create db in
  let before = Session.read s count in
  (try
     Session.write s (fun txn ->
         Session.Txn.insert txn "suppliers" (supplier 902 "phantom" db);
         raise Changed_my_mind)
   with Changed_my_mind -> ());
  Alcotest.(check int)
    "aborted write left no trace" before (Session.read s count);
  (* delete + clear buffer and abort the same way *)
  (try
     Session.write s (fun txn ->
         Session.Txn.clear txn "suppliers";
         Alcotest.(check int) "buffered clear empties own view" 0 (count txn);
         raise Changed_my_mind)
   with Changed_my_mind -> ());
  Alcotest.(check int) "aborted clear left no trace" before (Session.read s count)

let test_first_committer_wins () =
  let db = mk_db () in
  let s = Session.create db in
  let before = Session.read s count in
  (match
     Session.write s (fun txn ->
         Session.Txn.insert txn "suppliers" (supplier 903 "loser" db);
         (* A second transaction commits the same relation while ours
            is still open: ours must lose at commit. *)
         Database.with_write db (fun other ->
             Database.Txn.insert other "suppliers" (supplier 904 "winner" db)))
   with
  | () -> Alcotest.fail "expected Txn_conflict"
  | exception Errors.Txn_conflict _ -> ());
  let after = Session.read s count in
  Alcotest.(check int) "only the winner committed" (before + 1) after;
  Alcotest.(check bool) "winner's row present" true
    (Relation.find_key (Database.find_relation db "suppliers")
       [ Value.int 904 ]
    <> None);
  Alcotest.(check bool) "loser's row absent" true
    (Relation.find_key (Database.find_relation db "suppliers")
       [ Value.int 903 ]
    = None)

let test_disjoint_writers_both_commit () =
  let db = mk_db () in
  let s = Session.create db in
  (* Writes to different relations do not conflict. *)
  Session.write s (fun txn ->
      Session.Txn.insert txn "suppliers" (supplier 905 "alice" db);
      Database.with_write db (fun other ->
          Database.Txn.delete_key other "shipments"
            (Tuple.key_of
               (Relation.schema (Database.find_relation db "shipments"))
               (List.hd
                  (Relation.to_list (Database.find_relation db "shipments"))))));
  Alcotest.(check bool) "snapshot writer committed" true
    (Relation.find_key (Database.find_relation db "suppliers")
       [ Value.int 905 ]
    <> None)

let test_durable_states_frozen () =
  let path = Filename.temp_file "pascalr_txn" ".pascalrdb" in
  let cleanup () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path; path ^ ".tmp"; path ^ ".wal" ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      let db = mk_db () in
      Database.attach_wal db ~path;
      let suppliers = Database.find_relation db "suppliers" in
      (match Relation.insert suppliers (supplier 906 "intruder" db) with
      | () -> Alcotest.fail "expected Frozen"
      | exception Errors.Frozen _ -> ());
      (* The transactional path is the only mutation route. *)
      let s = Session.create db in
      Session.write s (fun txn ->
          Session.Txn.insert txn "suppliers" (supplier 907 "legit" db));
      Alcotest.(check bool) "txn write landed" true
        (Relation.find_key (Database.find_relation db "suppliers")
           [ Value.int 907 ]
        <> None);
      Database.close db;
      (* Reopen: the committed transaction survived the WAL round trip. *)
      let db2 = Database.open_durable ~path in
      Alcotest.(check bool) "txn write durable across reopen" true
        (Relation.find_key (Database.find_relation db2 "suppliers")
           [ Value.int 907 ]
        <> None);
      Database.close db2)

(* ---------------------------------------------------------------- *)
(* Secondary indexes across the transaction lifecycle: commits carry
   the incremental maintenance, aborts discard it, WAL crash replay
   rebuilds it. *)

let all_indexes_consistent db =
  List.for_all
    (fun (rel_name, _, _) ->
      let rel = Database.find_relation db rel_name in
      List.for_all
        (fun ix -> Secondary_index.consistent_with ix rel)
        (Database.secondary_indexes db rel_name))
    (Database.secondary_index_list db)

let test_index_survives_commit () =
  let db = mk_db () in
  ignore
    (Database.declare_index db "suppliers" ~on:[ "scity" ] : Secondary_index.t);
  let s = Session.create db in
  Session.write s (fun txn ->
      Session.Txn.insert txn "suppliers" (supplier 910 "alice" db);
      Session.Txn.insert txn "suppliers" (supplier 911 "bob" db);
      Session.Txn.delete_key txn "suppliers" [ Value.int 910 ]);
  (* Commit installs the transaction's copy-on-write clone, so the
     catalog is consulted after the fact — a pre-transaction handle is
     a stale snapshot by design. *)
  let ix =
    match Database.secondary_on db "suppliers" "scity" with
    | ix :: _ -> ix
    | [] -> Alcotest.fail "index vanished from the catalog"
  in
  Alcotest.(check bool) "committed writes maintained the index" true
    (Secondary_index.consistent_with ix
       (Database.find_relation db "suppliers"));
  Alcotest.(check bool) "new tuple probeable by city" true
    (List.exists
       (fun t -> Value.equal (Tuple.get t 0) (Value.int 911))
       (Secondary_index.probe1 ix (Workload.Suppliers.london db)))

let test_index_survives_abort () =
  let db = mk_db () in
  let ix = Database.declare_index db "suppliers" ~on:[ "scity" ] in
  let entries = Secondary_index.entry_count ix in
  let s = Session.create db in
  (try
     Session.write s (fun txn ->
         Session.Txn.insert txn "suppliers" (supplier 912 "ghost" db);
         failwith "abort")
   with Failure _ -> ());
  Alcotest.(check int) "aborted insert left the entry count" entries
    (Secondary_index.entry_count ix);
  Alcotest.(check bool) "aborted txn left the index consistent" true
    (Secondary_index.consistent_with ix
       (Database.find_relation db "suppliers"));
  Alcotest.(check bool) "ghost tuple not probeable" false
    (List.exists
       (fun t -> Value.equal (Tuple.get t 0) (Value.int 912))
       (Secondary_index.probe1 ix (Workload.Suppliers.london db)))

let test_index_survives_wal_replay () =
  let path = Filename.temp_file "pascalr_txn_ix" ".pascalrdb" in
  let cleanup () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path; path ^ ".tmp"; path ^ ".wal" ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      let db = mk_db () in
      ignore
        (Database.declare_index db "suppliers" ~on:[ "scity" ]
          : Secondary_index.t);
      Database.attach_wal db ~path;
      let s = Session.create db in
      Session.write s (fun txn ->
          Session.Txn.insert txn "suppliers" (supplier 913 "durable" db));
      (* No close, no checkpoint: the reopen is crash recovery — the
         insert lives only in the WAL tail and must be replayed into
         both the heap and the secondary index. *)
      let db2 = Database.open_durable ~path in
      Alcotest.(check bool) "replayed write visible" true
        (Relation.find_key (Database.find_relation db2 "suppliers")
           [ Value.int 913 ]
        <> None);
      Alcotest.(check bool) "every index consistent after replay" true
        (all_indexes_consistent db2);
      Alcotest.(check bool) "replayed tuple probeable" true
        (List.exists
           (fun t -> Value.equal (Tuple.get t 0) (Value.int 913))
           (List.concat_map
              (fun ix -> Secondary_index.probe1 ix (Workload.Suppliers.london db2))
              (Database.secondary_on db2 "suppliers" "scity")));
      Database.close db2;
      Database.close db)

(* ---------------------------------------------------------------- *)
(* Long churn: two writer domains run many small transactions against
   one durable store while a reader pins snapshots and checkpoints run
   in between.  Every transaction bumps a commit counter in [meta] and
   upserts or deletes a few keys of [kv]; since both writers write
   [meta], first-committer-wins orders them, and the counter a commit
   wrote is its place in the serial history.  A pinned snapshot must
   show [kv] exactly as the serial replay of the commits up to the
   counter it shows in [meta] — one commit point across both relations
   — and a recovery from disk must show the replay of all of them. *)

let int_schema names key =
  Schema.make
    (List.map (fun n -> Schema.attr n (Vtype.TInt { lo = 0; hi = max_int })) names)
    ~key

let churn_db () =
  let db = Database.create () in
  let meta = Database.declare_relation db ~name:"meta" (int_schema [ "id"; "seq" ] [ "id" ]) in
  Relation.insert meta (Tuple.of_list [ Value.int 0; Value.int 0 ]);
  ignore (Database.declare_relation db ~name:"kv" (int_schema [ "k"; "v" ] [ "k" ]));
  ignore (Database.declare_index db "kv" ~on:[ "v" ] : Secondary_index.t);
  db

let kv_contents rel =
  List.map
    (fun t ->
      match Tuple.to_list t with
      | [ Value.VInt k; Value.VInt v ] -> (k, v)
      | _ -> Alcotest.fail "kv tuple shape")
    (Relation.to_list rel)

let meta_seq rel =
  match Relation.find_key rel [ Value.int 0 ] with
  | Some t -> (match Tuple.get t 1 with Value.VInt n -> n | _ -> -1)
  | None -> -1

(* Serial replay of the acknowledged commits [1..upto], in counter
   order: [None] deletes the key. *)
let replay history upto =
  let model = Hashtbl.create 64 in
  for seq = 1 to upto do
    List.iter
      (fun (k, v) ->
        match v with
        | Some v -> Hashtbl.replace model k v
        | None -> Hashtbl.remove model k)
      history.(seq)
  done;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])

let churn_commit db rng =
  let rec attempt () =
    let ops =
      List.init
        (1 + Random.State.int rng 3)
        (fun _ ->
          let k = Random.State.int rng 40 in
          if Random.State.int rng 4 = 0 then (k, None)
          else (k, Some (Random.State.int rng 1000)))
    in
    match
      Database.with_write db (fun txn ->
          let seq = meta_seq (Database.find_relation (Database.Txn.view txn) "meta") + 1 in
          Database.Txn.delete_key txn "meta" [ Value.int 0 ];
          Database.Txn.insert txn "meta" (Tuple.of_list [ Value.int 0; Value.int seq ]);
          List.iter
            (fun (k, v) ->
              Database.Txn.delete_key txn "kv" [ Value.int k ];
              Option.iter
                (fun v -> Database.Txn.insert txn "kv" (Tuple.of_list [ Value.int k; Value.int v ]))
                v)
            ops;
          seq)
    with
    | seq -> (seq, ops)
    | exception Errors.Txn_conflict _ -> attempt ()
  in
  attempt ()

let with_store_path prefix f =
  let path = Filename.temp_file prefix ".pascalrdb" in
  let cleanup () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path; path ^ ".tmp"; path ^ ".wal"; path ^ ".wal.tmp" ]
  in
  Fun.protect ~finally:cleanup (fun () -> f path)

let test_long_churn () =
  with_store_path "pascalr_churn" (fun path ->
      let db = churn_db () in
      Database.attach_wal db ~path;
      let per_writer = 1000 in
      let writers_done = Atomic.make 0 in
      let writer id () =
        let rng = Random.State.make [| 7; id |] in
        let acked =
          List.init per_writer (fun i ->
              if i mod 150 = 149 then Database.checkpoint db;
              churn_commit db rng)
        in
        Atomic.incr writers_done;
        acked
      in
      let ws = List.map (fun id -> Domain.spawn (writer id)) [ 1; 2 ] in
      let seen = ref [] in
      while Atomic.get writers_done < 2 do
        Database.with_read db (fun txn ->
            let view = Database.Txn.view txn in
            seen :=
              (meta_seq (Database.find_relation view "meta"),
               kv_contents (Database.find_relation view "kv"))
              :: !seen);
        Unix.sleepf 0.0005
      done;
      let acked = List.concat_map Domain.join ws in
      let total = 2 * per_writer in
      let history = Array.make (total + 1) [] in
      List.iter (fun (seq, ops) -> history.(seq) <- ops) acked;
      Alcotest.(check (list int)) "commit counters are 1..n, each once"
        (List.init total (fun i -> i + 1))
        (List.sort compare (List.map fst acked));
      Alcotest.(check bool) "readers pinned several commit points" true
        (List.length (List.sort_uniq compare (List.map fst !seen)) > 2);
      List.iter
        (fun (seq, contents) ->
          if contents <> replay history seq then
            Alcotest.failf "snapshot at counter %d is not that commit point" seq)
        !seen;
      (* Recovery without close: the last snapshot plus the WAL tail the
         checkpoints left must replay to the whole history. *)
      let recovered = Database.open_durable ~path in
      Alcotest.(check int) "recovered counter" total
        (meta_seq (Database.find_relation recovered "meta"));
      Alcotest.(check bool) "recovered kv is the serial replay" true
        (kv_contents (Database.find_relation recovered "kv") = replay history total);
      Alcotest.(check bool) "recovered index consistent" true
        (all_indexes_consistent recovered);
      Database.close recovered;
      Database.close db)

(* A checkpoint pins its snapshot and saves it with no lock held, so
   commits complete while it runs, and their WAL records survive the
   cut.  [gen] is odd while a checkpoint call is in progress; a commit
   that starts and ends under one odd value ran inside that call. *)
let test_commits_during_checkpoint () =
  with_store_path "pascalr_ckpt" (fun path ->
      let db = Database.create () in
      let rel = Database.declare_relation db ~name:"kv" (int_schema [ "k"; "v" ] [ "k" ]) in
      for k = 0 to 99_999 do
        Relation.insert rel (Tuple.of_list [ Value.int k; Value.int 0 ])
      done;
      Database.attach_wal db ~path;
      let gen = Atomic.make 0 and stop = Atomic.make false in
      let inside = Atomic.make 0 in
      let upsert k v =
        Database.with_write db (fun txn ->
            Database.Txn.delete_key txn "kv" [ Value.int k ];
            Database.Txn.insert txn "kv" (Tuple.of_list [ Value.int k; Value.int v ]))
      in
      let committer () =
        let acked = ref [] and i = ref 0 in
        while not (Atomic.get stop) do
          incr i;
          let g0 = Atomic.get gen in
          upsert (!i mod 100_000) !i;
          acked := (!i mod 100_000, !i) :: !acked;
          if g0 land 1 = 1 && Atomic.get gen = g0 then Atomic.incr inside
        done;
        !acked
      in
      let c = Domain.spawn committer in
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rounds = ref 0 in
      while
        !rounds < 2
        || (Atomic.get inside = 0 && !rounds < 20 && Unix.gettimeofday () < deadline)
      do
        Atomic.incr gen;
        Database.checkpoint db;
        Atomic.incr gen;
        incr rounds
      done;
      (* The crash at the second site: the snapshot is saved, the WAL
         is not cut, and the records appended after the pin are in it. *)
      Failpoint.arm "wal.checkpoint.crash" (Failpoint.Nth 2);
      Fun.protect ~finally:Failpoint.disarm_all (fun () ->
          match Database.checkpoint db with
          | () -> Alcotest.fail "expected the injected checkpoint crash"
          | exception Errors.Io_error _ -> ());
      Atomic.set stop true;
      let acked = Domain.join c in
      Alcotest.(check bool)
        (Fmt.str "a commit completed inside a checkpoint (%d rounds)" !rounds)
        true (Atomic.get inside > 0);
      let recovered = Database.open_durable ~path in
      let r = Database.find_relation recovered "kv" in
      let latest = Hashtbl.create 64 in
      List.iter (fun (k, v) -> if not (Hashtbl.mem latest k) then Hashtbl.replace latest k v) acked;
      Hashtbl.iter
        (fun k v ->
          match Relation.find_key r [ Value.int k ] with
          | Some t when Value.equal (Tuple.get t 1) (Value.int v) -> ()
          | _ -> Alcotest.failf "acknowledged upsert of key %d lost" k)
        latest;
      Alcotest.(check int) "no row lost or added" 100_000 (Relation.cardinality r);
      Database.close recovered;
      Database.close db)

(* Drop the first record of the log at [wal]: the header (11-byte magic
   and i64 base sequence) stays, the records after the first follow. *)
let cut_head wal =
  let data = Bytes.of_string (In_channel.with_open_bin wal In_channel.input_all) in
  let header = 19 in
  let cur = Codec.cursor data in
  cur.Codec.pos <- header;
  let skip = header + 8 + Codec.get_i64 cur + 8 in
  Out_channel.with_open_bin wal (fun oc ->
      Out_channel.output oc data 0 header;
      Out_channel.output oc data skip (Bytes.length data - skip))

(* The header names the base sequence the first record must follow, so
   a log that lost its head is refused rather than replayed past the
   gap — a fresh log and one cut by a checkpoint alike. *)
let test_wal_head_cut () =
  with_store_path "pascalr_walhead" (fun path ->
      let wal = path ^ ".wal" in
      let count () = Wal.replay wal ~apply:ignore in
      let refused what =
        match count () with
        | n -> Alcotest.failf "%s: replayed %d records past the gap" what n
        | exception Errors.Corruption _ -> ()
      in
      let w = Wal.create wal in
      let commit k = Wal.commit w [ Wal.Delete ("kv", [ Value.int k ]) ] in
      commit 1;
      let m = Wal.mark w in
      commit 2;
      commit 3;
      Alcotest.(check int) "fresh log replays whole" 3 (count ());
      Wal.truncate_upto w m;
      Alcotest.(check int) "cut log keeps the records past the mark" 2 (count ());
      commit 4;
      Wal.close w;
      cut_head wal;
      refused "cut log without its head";
      let w = Wal.create wal in
      List.iter (fun k -> Wal.commit w [ Wal.Delete ("kv", [ Value.int k ]) ]) [ 1; 2 ];
      Wal.close w;
      cut_head wal;
      refused "fresh log without its head")

let suite =
  [
    ( "txn",
      [
        Alcotest.test_case "committed write visible to later reads" `Quick
          test_write_then_read;
        Alcotest.test_case "own writes buffered, isolated until commit" `Quick
          test_own_writes_visible_buffered;
        Alcotest.test_case "exception aborts and discards the buffer" `Quick
          test_abort_discards;
        Alcotest.test_case "first committer wins on overlap" `Quick
          test_first_committer_wins;
        Alcotest.test_case "disjoint writers both commit" `Quick
          test_disjoint_writers_both_commit;
        Alcotest.test_case "durable states frozen outside transactions" `Quick
          test_durable_states_frozen;
        Alcotest.test_case "secondary index maintained across commit" `Quick
          test_index_survives_commit;
        Alcotest.test_case "secondary index untouched by abort" `Quick
          test_index_survives_abort;
        Alcotest.test_case "secondary index rebuilt by WAL crash replay" `Quick
          test_index_survives_wal_replay;
        Alcotest.test_case "long churn: one commit point per snapshot" `Quick
          test_long_churn;
        Alcotest.test_case "wal refuses a log that lost its head" `Quick
          test_wal_head_cut;
        Alcotest.test_case "commits land during a checkpoint and survive"
          `Quick test_commits_during_checkpoint;
      ] );
  ]
