type event = {
  time : float;
  seq : int;
  run : unit -> unit;
  mutable active : bool;
}

type timer = { mutable ev : event; mutable alive : bool }
(* [alive] is the user-visible cancellation flag (periodic timers stay
   alive across firings); [ev] is the currently queued event. *)

module Heap = Prelude.Heap

(* The queue's order: FIFO among events scheduled for the same instant. *)
let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* A periodic timer's event before its first arming, and the filler of
   the queue's vacant slots. *)
let dummy = { time = 0.0; seq = 0; run = ignore; active = false }

type counters = { run : Metrics.counter; cancelled : Metrics.counter }

type t = {
  mutable clock : float;
  mutable next_seq : int;
  queue : event Heap.t;
  counters : counters option;
}

let create ?metrics () =
  let counters =
    Option.map
      (fun m ->
        { run = Metrics.counter m "sim_events_run"; cancelled = Metrics.counter m "sim_events_cancelled" })
      metrics
  in
  { clock = 0.0; next_seq = 0; queue = Heap.create ~before ~dummy (); counters }

let now t = t.clock

let enqueue t time run =
  let e = { time; seq = t.next_seq; run; active = true } in
  t.next_seq <- t.next_seq + 1;
  Heap.push t.queue e;
  e

let schedule_at t time run =
  if time < t.clock then invalid_arg "Sim.schedule_at: time in the past";
  { ev = enqueue t time run; alive = true }

let schedule t ~delay run =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  schedule_at t (t.clock +. delay) run

let every t ~period run =
  if period <= 0.0 then invalid_arg "Sim.every: period must be positive";
  let timer = { ev = dummy; alive = true } in
  let rec fire () =
    if timer.alive then begin
      (* Re-arm BEFORE running the callback.  A [cancel] issued from inside
         the callback then deactivates the already-queued next occurrence
         through [timer.ev]; deciding to re-enqueue after the callback
         returned would capture the alive/cancelled decision at the wrong
         point and could re-arm a timer its own callback just cancelled. *)
      timer.ev <- enqueue t (t.clock +. period) fire;
      run ()
    end
  in
  timer.ev <- enqueue t (t.clock +. period) fire;
  timer

let cancel timer =
  timer.alive <- false;
  timer.ev.active <- false

let pending t = Heap.length t.queue

let next_time t = Option.map (fun e -> e.time) (Heap.peek t.queue)

let step t =
  match Heap.pop t.queue with
  | None -> false
  | Some e ->
    t.clock <- e.time;
    if e.active then begin
      e.active <- false;
      Option.iter (fun c -> Metrics.incr c.run) t.counters;
      e.run ()
    end
    else Option.iter (fun c -> Metrics.incr c.cancelled) t.counters;
    true

let run ?until t =
  let continue () =
    match (Heap.peek t.queue, until) with
    | None, _ -> false
    | Some e, Some limit when e.time > limit -> false
    | Some _, _ -> true
  in
  while continue () do
    ignore (step t)
  done;
  match until with
  | Some limit when t.clock < limit -> t.clock <- limit
  | _ -> ()
