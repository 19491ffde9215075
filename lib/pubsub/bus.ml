module Store = Softstate.Store
module Sim = Engine.Sim
module Landmarks = Landmark.Landmarks

type event =
  | Entry_published of { region : int array; entry_node : int }
  | Entry_departed of { region : int array; entry_node : int }
  | Load_changed of { region : int array; entry_node : int; load : float }

type condition =
  | Any_new_entry
  | Closer_than of float array * float
  | Load_above of { watched : int; threshold : float }
  | Departure_of of int

type notification = { subscriber : int; event : event; delivered_at : float }

type subscription = {
  id : int;
  subscriber : int;
  region : int array;
  condition : condition;
  handler : notification -> unit;
  mutable active : bool;
}

(* One notification waiting inside a digest: the event, the matched
   subscription, and the channel-assigned delivery delay it would have had
   on its own (kept for the trace). *)
type item = { it_event : event; it_sub : subscription; it_delay : float }

type batch = { mutable items : item list (* newest first *) }

(* A region's subscriptions, indexed by the events they can match.
   [Any_new_entry] and [Closer_than] watches live in [near], oldest
   first, so a publish walks it backwards (newest first).  An unsubscribe
   there only flips [active] and counts the watch dead; [near] is
   compacted in place, order kept, once the dead outnumber the live and
   no dispatch is walking it ([walking]), so each unsubscribe is
   amortised O(1).  [Departure_of] and [Load_above] watches are keyed by
   the watched node, newest first, in two tables, and leave their list
   at once.  [live] counts every kind. *)
type region_subs = {
  mutable near : subscription array;
  mutable near_len : int;
  mutable near_dead : int;
  mutable walking : int;  (* dispatches currently walking [near] *)
  departs : (int, subscription list) Hashtbl.t;  (* watched node -> its watches *)
  loads : (int, subscription list) Hashtbl.t;  (* watched node -> its watches *)
  mutable live : int;
}

type obs = {
  n_sent : Engine.Metrics.counter;
  n_delivered : Engine.Metrics.counter;
  n_dropped : Engine.Metrics.counter;
  n_batched : Engine.Metrics.counter;
  digest_size : Engine.Metrics.histogram;
  tracer : Engine.Trace.t option;
}

type t = {
  store : Store.t;
  sim : Sim.t option;
  latency : host:int -> subscriber:int -> float;
  channel : float -> float option;
  mutable digest_window : float;
  regions : (int, region_subs) Hashtbl.t;  (* region key -> subscriptions *)
  pending : (int * int, batch) Hashtbl.t;  (* (subscriber, region key) -> open digest *)
  mutable next_id : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable batched : int;
  obs : obs option;
}

let region_key bits = Array.fold_left (fun acc b -> (acc lsl 1) lor b) 1 bits

(* A delivery's Notify span names the subject entry and its region, so
   trace analyses ([Engine.Repair]) can join it against the Map_publish
   spans of the same region. *)
let trace_notify tr ~dur ~host sub event =
  let kind =
    match event with
    | Entry_published { region; entry_node } ->
      Engine.Trace.Notify { change = Published; entry = entry_node; region }
    | Entry_departed { region; entry_node } ->
      Engine.Trace.Notify { change = Departed; entry = entry_node; region }
    | Load_changed { region; entry_node; _ } ->
      Engine.Trace.Notify { change = Load_changed; entry = entry_node; region }
  in
  Engine.Trace.emit tr ~dur ~peer:sub.subscriber kind ~node:host

let create ?metrics ?(labels = []) ?trace ?sim ?(latency = fun ~host:_ ~subscriber:_ -> 0.0)
    ?(channel = fun delay -> Some delay) ?(digest_window = 0.0) store =
  if not (Float.is_finite digest_window && digest_window >= 0.0) then
    invalid_arg "Bus.create: digest_window must be finite and >= 0";
  let obs =
    Option.map
      (fun m ->
        {
          n_sent = Engine.Metrics.counter m ~labels "notify_sent";
          n_delivered = Engine.Metrics.counter m ~labels "notify_delivered";
          n_dropped = Engine.Metrics.counter m ~labels "notify_dropped";
          n_batched = Engine.Metrics.counter m ~labels "notify_batched";
          digest_size = Engine.Metrics.histogram m ~labels "notify_digest_size";
          tracer = trace;
        })
      metrics
  in
  {
    store;
    sim;
    latency;
    channel;
    digest_window;
    regions = Hashtbl.create 64;
    pending = Hashtbl.create 64;
    next_id = 0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    batched = 0;
    obs;
  }

let sent_count t = t.sent
let delivered_count t = t.delivered
let dropped_count t = t.dropped
let batched_count t = t.batched
let digest_window t = t.digest_window

(* Open digests keep the delivery schedule they were created with; only
   digests opened after the change see the new window — so a mid-run
   re-tune (Maintenance's ?adapt) never reorders already-scheduled
   deliveries. *)
let set_digest_window t w =
  if not (Float.is_finite w && w >= 0.0) then
    invalid_arg "Bus.set_digest_window: window must be finite and >= 0";
  t.digest_window <- w

let store t = t.store

let new_region () =
  {
    near = [||];
    near_len = 0;
    near_dead = 0;
    walking = 0;
    departs = Hashtbl.create 8;
    loads = Hashtbl.create 1;
    live = 0;
  }

let add_watch by_node watched sub =
  let others = try Hashtbl.find by_node watched with Not_found -> [] in
  Hashtbl.replace by_node watched (sub :: others)

let remove_watch by_node watched sub =
  match List.filter (fun s -> s != sub) (Hashtbl.find by_node watched) with
  | [] -> Hashtbl.remove by_node watched
  | rest -> Hashtbl.replace by_node watched rest

let subscribe t ~subscriber ~region ~condition ~handler =
  let sub =
    {
      id = t.next_id;
      subscriber;
      region = Array.copy region;
      condition;
      handler;
      active = true;
    }
  in
  t.next_id <- t.next_id + 1;
  let key = region_key region in
  let r =
    match Hashtbl.find t.regions key with
    | r -> r
    | exception Not_found ->
      let r = new_region () in
      Hashtbl.replace t.regions key r;
      r
  in
  r.live <- r.live + 1;
  (match condition with
  | Any_new_entry | Closer_than _ ->
    if r.near_len = Array.length r.near then begin
      let near = Array.make (max 4 (2 * r.near_len)) sub in
      Array.blit r.near 0 near 0 r.near_len;
      r.near <- near
    end;
    r.near.(r.near_len) <- sub;
    r.near_len <- r.near_len + 1
  | Departure_of watched -> add_watch r.departs watched sub
  | Load_above { watched; _ } -> add_watch r.loads watched sub);
  sub

let near_live r = r.near_len - r.near_dead

(* Squeeze the dead out of [near] in place, order kept, once they
   outnumber the live and no dispatch is walking it.  The vacated tail
   is overwritten with a live entry so it keeps no dead one reachable. *)
let maybe_compact_near r =
  if r.walking = 0 && r.near_dead > near_live r then begin
    let j = ref 0 in
    for i = 0 to r.near_len - 1 do
      let s = r.near.(i) in
      if s.active then begin
        r.near.(!j) <- s;
        incr j
      end
    done;
    if !j > 0 then Array.fill r.near !j (r.near_len - !j) r.near.(0) else r.near <- [||];
    r.near_len <- !j;
    r.near_dead <- 0
  end

let unsubscribe t sub =
  if sub.active then begin
    sub.active <- false;
    let key = region_key sub.region in
    match Hashtbl.find t.regions key with
    | exception Not_found -> ()
    | r ->
      r.live <- r.live - 1;
      if r.live = 0 then Hashtbl.remove t.regions key
      else begin
        match sub.condition with
        | Any_new_entry | Closer_than _ ->
          r.near_dead <- r.near_dead + 1;
          maybe_compact_near r
        | Departure_of watched -> remove_watch r.departs watched sub
        | Load_above { watched; _ } -> remove_watch r.loads watched sub
      end
  end

let subscription_count t ~region =
  match Hashtbl.find_opt t.regions (region_key region) with Some r -> r.live | None -> 0

(* One notification onto the channel: the sent count, the latency floor,
   the channel's draw and, on a loss, the drop count.  Returns the
   channel's delay, or [None] when it drops the notification.  Callers
   floor the delay at 0 themselves: the channel's own [Some] is passed
   on, so a send allocates nothing beyond what the channel does. *)
let send t sub ~host =
  t.sent <- t.sent + 1;
  (match t.obs with None -> () | Some o -> Engine.Metrics.incr o.n_sent);
  let base = Float.max 0.0 (t.latency ~host ~subscriber:sub.subscriber) in
  let verdict = t.channel base in
  if Option.is_none verdict then begin
    t.dropped <- t.dropped + 1;
    match t.obs with None -> () | Some o -> Engine.Metrics.incr o.n_dropped
  end;
  verdict

(* The seed delivery path: one scheduled engine event per notification.
   Used whenever the digest window is zero (the default) or there is no
   simulation to batch within. *)
let deliver_immediate t sub ~host event =
  let fire at =
    if sub.active then begin
      t.delivered <- t.delivered + 1;
      (match t.obs with None -> () | Some o -> Engine.Metrics.incr o.n_delivered);
      sub.handler { subscriber = sub.subscriber; event; delivered_at = at }
    end
  in
  match send t sub ~host with
  | None -> ()
  | Some total ->
    let total = Float.max 0.0 total in
    (match t.obs with
    | Some { tracer = Some tr; _ } ->
      trace_notify tr ~dur:total ~host sub event
    | Some { tracer = None; _ } | None -> ());
    (match t.sim with
    | None -> fire 0.0
    | Some sim -> ignore (Sim.schedule sim ~delay:total (fun () -> fire (Sim.now sim))))

let flush_digest t sim ~subscriber ~key =
  match Hashtbl.find_opt t.pending (subscriber, key) with
  | None -> ()
  | Some batch ->
    Hashtbl.remove t.pending (subscriber, key);
    let items = List.rev batch.items in
    t.batched <- t.batched + 1;
    (match t.obs with
    | None -> ()
    | Some o ->
      Engine.Metrics.incr o.n_batched;
      Engine.Metrics.observe o.digest_size (float_of_int (List.length items)));
    let now = Sim.now sim in
    List.iter
      (fun it ->
        if it.it_sub.active then begin
          t.delivered <- t.delivered + 1;
          (match t.obs with None -> () | Some o -> Engine.Metrics.incr o.n_delivered);
          it.it_sub.handler { subscriber; event = it.it_event; delivered_at = now }
        end)
      items

(* Digest path: coalesce every notification for the same (subscriber,
   region) that arrives within [digest_window] virtual milliseconds into
   ONE scheduled engine event.  The channel is still consulted per
   notification (so loss statistics are unchanged); the digest travels as
   a single message whose delivery delay is the opening notification's
   channel delay plus the window. *)
let deliver_digest t sim sub ~host event =
  match send t sub ~host with
  | None -> ()
  | Some total ->
    let total = Float.max 0.0 total in
    let key = region_key sub.region in
    let bkey = (sub.subscriber, key) in
    (match Hashtbl.find_opt t.pending bkey with
    | Some batch -> batch.items <- { it_event = event; it_sub = sub; it_delay = total } :: batch.items
    | None ->
      Hashtbl.replace t.pending bkey
        { items = [ { it_event = event; it_sub = sub; it_delay = total } ] };
      let delay = total +. t.digest_window in
      (match t.obs with
      | Some { tracer = Some tr; _ } ->
        trace_notify tr ~dur:delay ~host sub event
      | Some { tracer = None; _ } | None -> ());
      ignore
        (Sim.schedule sim ~delay (fun () -> flush_digest t sim ~subscriber:sub.subscriber ~key)))

let deliver t sub ~host event =
  match t.sim with
  | Some sim when t.digest_window > 0.0 -> deliver_digest t sim sub ~host event
  | Some _ | None -> deliver_immediate t sub ~host event

(* Each event kind reads only the index that can match it, once:
   subscriptions a handler adds mid-dispatch are not visited, and [near]
   is not compacted while a dispatch walks it, so the deliveries and
   their order are those of a newest-first walk over every subscription
   of the region. *)
let walk_near t r ~vector ~host event =
  let near = r.near in
  for i = r.near_len - 1 downto 0 do
    let sub = near.(i) in
    if sub.active
       &&
       match sub.condition with
       | Closer_than (mine, d) -> (
         match vector with Some v -> Landmarks.within mine v d | None -> false)
       | Any_new_entry | Load_above _ | Departure_of _ -> true
    then deliver t sub ~host event
  done

let notify t ~region ~vector ~host event =
  match Hashtbl.find t.regions (region_key region) with
  | exception Not_found -> ()
  | r -> (
    match event with
    | Entry_published _ ->
      r.walking <- r.walking + 1;
      (match walk_near t r ~vector ~host event with
      | () -> r.walking <- r.walking - 1
      | exception e ->
        r.walking <- r.walking - 1;
        raise e);
      maybe_compact_near r
    | Entry_departed { entry_node; _ } -> (
      match Hashtbl.find r.departs entry_node with
      | exception Not_found -> ()
      | subs -> List.iter (fun sub -> if sub.active then deliver t sub ~host event) subs)
    | Load_changed { entry_node; load; _ } -> (
      match Hashtbl.find r.loads entry_node with
      | exception Not_found -> ()
      | subs ->
        List.iter
          (fun sub ->
            match sub.condition with
            | Load_above { threshold; _ } when sub.active && load > threshold ->
              deliver t sub ~host event
            | Any_new_entry | Closer_than _ | Load_above _ | Departure_of _ -> ())
          subs))

let host_for t ~region ~vector =
  if Can.Overlay.size (Store.can t.store) = 0 then -1
  else Store.host_of t.store ~region ~vector

let publish t ~region ~node ~vector =
  let fresh = Store.find t.store ~region ~node = None in
  Store.publish t.store ~region ~node ~vector;
  if fresh then begin
    let host = host_for t ~region ~vector in
    notify t ~region ~vector:(Some vector) ~host (Entry_published { region; entry_node = node })
  end

let publish_all t ~span_bits ~node ~vector =
  let path = (Can.Overlay.node (Store.can t.store) node).Can.Overlay.path in
  let len = Array.length path / span_bits * span_bits in
  let rec go l =
    if l >= 0 then begin
      publish t ~region:(Array.sub path 0 l) ~node ~vector;
      go (l - span_bits)
    end
  in
  go len

let update_load t ~region ~node ~load ~capacity =
  match Store.find t.store ~region ~node with
  | None -> ()
  | Some e ->
    Store.update_stats t.store ~region ~node ~load ~capacity;
    let host = host_for t ~region ~vector:e.Store.Entry.vector in
    notify t ~region ~vector:None ~host (Load_changed { region; entry_node = node; load })

let notify_departures t dead =
  List.iter
    (fun (region, (e : Store.Entry.t)) ->
      let host = host_for t ~region ~vector:e.Store.Entry.vector in
      notify t ~region ~vector:(Some e.Store.Entry.vector) ~host
        (Entry_departed { region; entry_node = e.Store.Entry.node }))
    dead

let expire_sweep t =
  let dead = Store.sweep_expired t.store in
  notify_departures t dead;
  List.length dead

let expire_sweep_shard t i =
  let dead = Store.sweep_shard t.store i in
  notify_departures t dead;
  List.length dead

let depart t ~node =
  let regions = Store.regions_of t.store node in
  List.iter
    (fun region ->
      let vector =
        match Store.find t.store ~region ~node with
        | Some e -> Some e.Store.Entry.vector
        | None -> None
      in
      Store.unpublish t.store ~region ~node;
      let host =
        match vector with Some v -> host_for t ~region ~vector:v | None -> -1
      in
      notify t ~region ~vector ~host (Entry_departed { region; entry_node = node }))
    regions
