module Json = Prelude.Json

type change = Published | Departed | Load_changed
type fault = Crash | Leave | Join | Expire of float | Channel_drop
type queued = { queue_ms : float; attempt : int }
type outcome = Hit | Miss | Shed

type kind =
  | Route_hop
  | Rtt_probe of queued
  | Map_publish of { region : int array }
  | Notify of { change : change; entry : int; region : int array }
  | Ttl_sweep of { purged : int }
  | Fault_inject of fault
  | Cache_request of { outcome : outcome; key : int }
  | Cache_replicate of { key : int }
  | Mcast_deliver of { publish : int }
  | Mcast_regraft of { lost_parent : int }

let kind_name = function
  | Route_hop -> "route_hop"
  | Rtt_probe _ -> "rtt_probe"
  | Map_publish _ -> "map_publish"
  | Notify _ -> "notify"
  | Ttl_sweep _ -> "ttl_sweep"
  | Fault_inject _ -> "fault_inject"
  | Cache_request _ -> "cache_request"
  | Cache_replicate _ -> "cache_replicate"
  | Mcast_deliver _ -> "mcast_deliver"
  | Mcast_regraft _ -> "mcast_regraft"

let region_label bits =
  if Array.length bits = 0 then "root"
  else String.concat "" (Array.to_list (Array.map string_of_int bits))

let fault_label = function
  | Crash -> "crash"
  | Leave -> "leave"
  | Join -> "join"
  | Expire f -> Printf.sprintf "expire %.3f" f
  | Channel_drop -> "channel drop"

(* The one place a payload becomes text: the JSONL export's [note]. *)
let note = function
  | Route_hop -> ""
  | Rtt_probe { queue_ms; attempt } -> Printf.sprintf "q=%g;try=%d" queue_ms attempt
  | Map_publish { region } -> region_label region
  | Notify { change; entry; region } ->
    let tag = match change with Published -> "pub" | Departed -> "dep" | Load_changed -> "load" in
    Printf.sprintf "%s:%d@%s" tag entry (region_label region)
  | Ttl_sweep { purged } -> Printf.sprintf "%d purged" purged
  | Fault_inject f -> fault_label f
  | Cache_request { outcome; key } ->
    let tag = match outcome with Hit -> "hit" | Miss -> "miss" | Shed -> "shed" in
    Printf.sprintf "%s:%d" tag key
  | Cache_replicate { key } -> string_of_int key
  | Mcast_deliver { publish } -> Printf.sprintf "pub:%d" publish
  | Mcast_regraft { lost_parent } -> Printf.sprintf "dead:%d" lost_parent

type span = { seq : int; at : float; dur : float; kind : kind; node : int; peer : int }

let dummy = { seq = -1; at = 0.0; dur = 0.0; kind = Route_hop; node = -1; peer = -1 }

type t = {
  ring : span array;
  capacity : int;
  clock : unit -> float;
  mutable emitted : int;
}

let default_capacity = 65_536

let create ?(capacity = default_capacity) ?(clock = fun () -> 0.0) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  { ring = Array.make capacity dummy; capacity; clock; emitted = 0 }

let emit t ?at ?(dur = 0.0) ?(peer = -1) kind ~node =
  let at = match at with Some a -> a | None -> t.clock () in
  let seq = t.emitted in
  t.ring.(seq mod t.capacity) <- { seq; at; dur; kind; node; peer };
  t.emitted <- seq + 1

let emitted t = t.emitted
let length t = min t.emitted t.capacity
let dropped t = t.emitted - length t

let spans t =
  (* Oldest retained span first.  When the ring has wrapped, the oldest
     retained span is the one the next emit would overwrite. *)
  let len = length t in
  let first = t.emitted - len in
  List.init len (fun i -> t.ring.((first + i) mod t.capacity))

(* Chrome trace event format (complete events, "ph":"X"), one JSON object
   per line.  Chrome expects microseconds; the virtual clock is in
   milliseconds, so scale by 1000. *)
let span_json s =
  let note = note s.kind in
  Json.Obj
    [
      ("name", Json.String (kind_name s.kind));
      ("cat", Json.String "topo");
      ("ph", Json.String "X");
      ("ts", Json.Float (s.at *. 1000.0));
      ("dur", Json.Float (s.dur *. 1000.0));
      ("pid", Json.Int 0);
      ("tid", Json.Int s.node);
      ( "args",
        Json.Obj
          (("seq", Json.Int s.seq)
           :: ((if s.peer >= 0 then [ ("peer", Json.Int s.peer) ] else [])
              @ if note <> "" then [ ("note", Json.String note) ] else [])) );
    ]

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Json.to_buffer buf (span_json s);
      Buffer.add_char buf '\n')
    (spans t);
  Buffer.contents buf
