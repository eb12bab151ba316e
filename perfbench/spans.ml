(* An in-memory span recorder for the traced run.

   Every traced request opens one root span ("request"); each layer call
   it makes is a child span.  Spans are stored column-wise in growable
   arrays (layer, start, end, parent, request id) and written out only
   after the measured loop.  A layer's self time is its spans' durations
   minus their children's, so the self times of all layers, the root
   included, add up exactly to the requests' wall time; the root's self
   time is the part no layer covers (the unattributed share). *)

type layer =
  | Request
  | Lang
  | Plan
  | Snapshot
  | Txn_pin
  | Collection
  | Combination
  | Construction
  | Txn_write
  | Txn_commit
  | Checkpoint

let layers =
  [|
    Request;
    Lang;
    Plan;
    Snapshot;
    Txn_pin;
    Collection;
    Combination;
    Construction;
    Txn_write;
    Txn_commit;
    Checkpoint;
  |]

let index = function
  | Request -> 0
  | Lang -> 1
  | Plan -> 2
  | Snapshot -> 3
  | Txn_pin -> 4
  | Collection -> 5
  | Combination -> 6
  | Construction -> 7
  | Txn_write -> 8
  | Txn_commit -> 9
  | Checkpoint -> 10

let name = function
  | Request -> "request"
  | Lang -> "lang"
  | Plan -> "plan"
  | Snapshot -> "txn.read"
  | Txn_pin -> "txn.pin"
  | Collection -> "collection"
  | Combination -> "combination"
  | Construction -> "construction"
  | Txn_write -> "txn.write"
  | Txn_commit -> "txn.commit"
  | Checkpoint -> "wal.checkpoint"

type t = {
  mutable n : int;
  mutable layer : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable req : int array;
  mutable root : int;  (** index of the open request span, or -1 *)
}

let create () =
  let cap = 4096 in
  {
    n = 0;
    layer = Array.make cap 0;
    start = Array.make cap 0.0;
    stop = Array.make cap 0.0;
    parent = Array.make cap (-1);
    req = Array.make cap 0;
    root = -1;
  }

let grow t =
  let cap = 2 * Array.length t.layer in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.layer <- ext t.layer 0;
  t.start <- ext t.start 0.0;
  t.stop <- ext t.stop 0.0;
  t.parent <- ext t.parent (-1);
  t.req <- ext t.req 0

let push t layer ~parent ~req =
  if t.n = Array.length t.layer then grow t;
  let i = t.n in
  t.layer.(i) <- index layer;
  t.parent.(i) <- parent;
  t.req.(i) <- req;
  t.n <- i + 1;
  t.start.(i) <- Unix.gettimeofday ();
  i

let close t i = t.stop.(i) <- Unix.gettimeofday ()

let finish t i f =
  match f () with
  | v ->
    close t i;
    v
  | exception e ->
    close t i;
    raise e

(* [span t layer f]: a child of the open request span. *)
let span t layer f =
  let i = push t layer ~parent:t.root ~req:t.req.(t.root) in
  finish t i f

(* [request t id f]: a root span around one whole request. *)
let request t id f =
  let i = push t Request ~parent:(-1) ~req:id in
  t.root <- i;
  Fun.protect ~finally:(fun () -> t.root <- -1) (fun () -> finish t i f)

let duration t i = t.stop.(i) -. t.start.(i)

(* Self time per layer (seconds, indexed by [index]), span count per
   layer, and the summed wall time of the root spans. *)
let self_times ts =
  let self = Array.make (Array.length layers) 0.0 in
  let calls = Array.make (Array.length layers) 0 in
  let wall = ref 0.0 in
  List.iter
    (fun t ->
      for i = 0 to t.n - 1 do
        let d = duration t i in
        let l = t.layer.(i) in
        self.(l) <- self.(l) +. d;
        calls.(l) <- calls.(l) + 1;
        if t.parent.(i) >= 0 then begin
          let p = t.layer.(t.parent.(i)) in
          self.(p) <- self.(p) -. d
        end
        else wall := !wall +. d
      done)
    ts;
  (self, calls, !wall)

let write_jsonl oc ~origin ~client t =
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"client\":%d,\"req\":%d,\"span\":%S,\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n"
      client t.req.(i)
      (name layers.(t.layer.(i)))
      t.parent.(i)
      ((t.start.(i) -. origin) *. 1e6)
      ((t.stop.(i) -. origin) *. 1e6)
  done
