module Rng = Prelude.Rng

type action = Crash | Leave | Join | Expire of float

type event = { at : float; action : action }

type storm = {
  crashes : int;
  leaves : int;
  joins : int;
  expire_bursts : int;
  expire_fraction : float;
  start : float;
  spread : float;
}

let default_storm =
  {
    crashes = 8;
    leaves = 8;
    joins = 16;
    expire_bursts = 2;
    expire_fraction = 0.10;
    start = 10_000.0;
    spread = 30_000.0;
  }

type channel = { loss : float; delay_min : float; delay_max : float }

let reliable = { loss = 0.0; delay_min = 0.0; delay_max = 0.0 }

type t = {
  channel : channel;
  plan_rng : Rng.t;
  chan_rng : Rng.t;
  buf : Buffer.t;
  tracer : Trace.t option;
  mutable messages : int;
  mutable dropped : int;
}

let create ?(channel = reliable) ?trace ~seed () =
  if channel.loss < 0.0 || channel.loss > 1.0 then
    invalid_arg "Faults.create: loss must be in [0,1]";
  if channel.delay_min < 0.0 || channel.delay_max < channel.delay_min then
    invalid_arg "Faults.create: need 0 <= delay_min <= delay_max";
  let root = Rng.create seed in
  {
    channel;
    plan_rng = Rng.split root;
    chan_rng = Rng.split root;
    buf = Buffer.create 1024;
    tracer = trace;
    messages = 0;
    dropped = 0;
  }

let note t line =
  Buffer.add_string t.buf line;
  Buffer.add_char t.buf '\n'

let trace_digest t = Buffer.contents t.buf

let trace_fault = function
  | Crash -> Trace.Crash
  | Leave -> Trace.Leave
  | Join -> Trace.Join
  | Expire f -> Trace.Expire f

let action_name a = Trace.fault_label (trace_fault a)

let plan t storm =
  if storm.spread < 0.0 then invalid_arg "Faults.plan: negative spread";
  let at () = storm.start +. (if storm.spread > 0.0 then Rng.float t.plan_rng storm.spread else 0.0) in
  let events = ref [] in
  let emit n action = for _ = 1 to n do events := { at = at (); action } :: !events done in
  emit storm.crashes Crash;
  emit storm.leaves Leave;
  emit storm.joins Join;
  emit storm.expire_bursts (Expire storm.expire_fraction);
  let sorted = List.stable_sort (fun a b -> compare a.at b.at) (List.rev !events) in
  List.iter (fun e -> note t (Printf.sprintf "plan t=%.6f %s" e.at (action_name e.action))) sorted;
  sorted

let install t ~sim ~plan ~handler =
  List.iter
    (fun e ->
      ignore
        (Sim.schedule_at sim e.at (fun () ->
             note t (Printf.sprintf "fire t=%.6f %s" (Sim.now sim) (action_name e.action));
             Option.iter
               (fun tr ->
                 Trace.emit tr ~at:(Sim.now sim) (Trace.Fault_inject (trace_fault e.action))
                   ~node:(-1))
               t.tracer;
             handler e)))
    plan

let perturb t base =
  t.messages <- t.messages + 1;
  let n = t.messages in
  if t.channel.loss > 0.0 && Rng.chance t.chan_rng t.channel.loss then begin
    t.dropped <- t.dropped + 1;
    note t (Printf.sprintf "msg %d drop" n);
    Option.iter (fun tr -> Trace.emit tr (Trace.Fault_inject Trace.Channel_drop) ~node:(-1)) t.tracer;
    None
  end
  else begin
    let extra =
      if t.channel.delay_max > t.channel.delay_min then
        Rng.float_in t.chan_rng t.channel.delay_min t.channel.delay_max
      else t.channel.delay_min
    in
    if extra > 0.0 then note t (Printf.sprintf "msg %d +%.6f" n extra);
    Some (base +. extra)
  end

let messages t = t.messages
let dropped t = t.dropped
