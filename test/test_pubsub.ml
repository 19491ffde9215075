(* Tests for the publish/subscribe bus. *)

module Bus = Pubsub.Bus
module Store = Softstate.Store
module Can_overlay = Can.Overlay
module Number = Landmark.Number
module Point = Geometry.Point
module Sim = Engine.Sim
module Rng = Prelude.Rng

let scheme = Number.default_scheme ~max_latency:100.0 ()

let setup ?(n = 30) ~seed () =
  let rng = Rng.create seed in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to n - 1 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let sim = Sim.create () in
  let store = Store.create ~clock:(fun () -> Sim.now sim) ~scheme can in
  let bus = Bus.create ~sim store in
  (bus, sim, rng)

let vec rng = Array.init 5 (fun _ -> Rng.float rng 100.0)

let test_any_new_entry () =
  let bus, sim, rng = setup ~seed:1 () in
  let events = ref [] in
  let _sub =
    Bus.subscribe bus ~subscriber:7 ~region:[||] ~condition:Bus.Any_new_entry
      ~handler:(fun n -> events := n :: !events)
  in
  Bus.publish bus ~region:[||] ~node:3 ~vector:(vec rng);
  Sim.run sim;
  Alcotest.(check int) "one notification" 1 (List.length !events);
  (match !events with
  | [ { Bus.subscriber; event = Bus.Entry_published { entry_node; _ }; _ } ] ->
    Alcotest.(check int) "subscriber" 7 subscriber;
    Alcotest.(check int) "entry node" 3 entry_node
  | _ -> Alcotest.fail "unexpected event shape");
  (* refresh of the same node must NOT re-notify *)
  Bus.publish bus ~region:[||] ~node:3 ~vector:(vec rng);
  Sim.run sim;
  Alcotest.(check int) "no notification on refresh" 1 (List.length !events)

let test_region_isolation () =
  let bus, sim, rng = setup ~seed:2 () in
  let fired = ref 0 in
  let _sub =
    Bus.subscribe bus ~subscriber:1 ~region:[| 0; 0 |] ~condition:Bus.Any_new_entry
      ~handler:(fun _ -> incr fired)
  in
  Bus.publish bus ~region:[| 1; 1 |] ~node:3 ~vector:(vec rng);
  Sim.run sim;
  Alcotest.(check int) "other region does not fire" 0 !fired;
  Bus.publish bus ~region:[| 0; 0 |] ~node:3 ~vector:(vec rng);
  Sim.run sim;
  Alcotest.(check int) "right region fires" 1 !fired

let test_closer_than () =
  let bus, sim, _ = setup ~seed:3 () in
  let mine = [| 10.0; 10.0; 10.0; 10.0; 10.0 |] in
  let fired = ref 0 in
  let _sub =
    Bus.subscribe bus ~subscriber:1 ~region:[||]
      ~condition:(Bus.Closer_than (mine, 5.0))
      ~handler:(fun _ -> incr fired)
  in
  (* far entry: no fire *)
  Bus.publish bus ~region:[||] ~node:2 ~vector:[| 90.0; 90.0; 90.0; 90.0; 90.0 |];
  Sim.run sim;
  Alcotest.(check int) "far newcomer ignored" 0 !fired;
  (* close entry: fire *)
  Bus.publish bus ~region:[||] ~node:3 ~vector:[| 11.0; 10.0; 10.0; 10.0; 10.0 |];
  Sim.run sim;
  Alcotest.(check int) "close newcomer fires" 1 !fired

let test_load_above () =
  let bus, sim, rng = setup ~seed:4 () in
  let fired = ref [] in
  let _sub =
    Bus.subscribe bus ~subscriber:1 ~region:[||]
      ~condition:(Bus.Load_above { watched = 5; threshold = 0.8 })
      ~handler:(fun n -> fired := n :: !fired)
  in
  Bus.publish bus ~region:[||] ~node:5 ~vector:(vec rng);
  Bus.update_load bus ~region:[||] ~node:5 ~load:0.5 ~capacity:1.0;
  Sim.run sim;
  Alcotest.(check int) "below threshold silent" 0 (List.length !fired);
  Bus.update_load bus ~region:[||] ~node:5 ~load:0.9 ~capacity:1.0;
  Sim.run sim;
  Alcotest.(check int) "above threshold fires" 1 (List.length !fired);
  (match !fired with
  | [ { Bus.event = Bus.Load_changed { load; _ }; _ } ] ->
    Alcotest.(check (float 0.0)) "load carried" 0.9 load
  | _ -> Alcotest.fail "unexpected event");
  (* a different node's load does not fire *)
  Bus.publish bus ~region:[||] ~node:6 ~vector:(vec rng);
  Bus.update_load bus ~region:[||] ~node:6 ~load:0.99 ~capacity:1.0;
  Sim.run sim;
  Alcotest.(check int) "other node silent" 1 (List.length !fired)

let test_departure () =
  let bus, sim, rng = setup ~seed:5 () in
  let fired = ref 0 in
  Bus.publish_all bus ~span_bits:2 ~node:9 ~vector:(vec rng);
  let _sub =
    Bus.subscribe bus ~subscriber:1 ~region:[||] ~condition:(Bus.Departure_of 9)
      ~handler:(fun _ -> incr fired)
  in
  Bus.depart bus ~node:9;
  Sim.run sim;
  Alcotest.(check int) "departure fires" 1 !fired;
  Alcotest.(check bool) "state retracted" true
    (Store.find (Bus.store bus) ~region:[||] ~node:9 = None)

let test_unsubscribe () =
  let bus, sim, rng = setup ~seed:6 () in
  let fired = ref 0 in
  let sub =
    Bus.subscribe bus ~subscriber:1 ~region:[||] ~condition:Bus.Any_new_entry
      ~handler:(fun _ -> incr fired)
  in
  Alcotest.(check int) "counted" 1 (Bus.subscription_count bus ~region:[||]);
  Bus.unsubscribe bus sub;
  Alcotest.(check int) "removed" 0 (Bus.subscription_count bus ~region:[||]);
  Bus.publish bus ~region:[||] ~node:2 ~vector:(vec rng);
  Sim.run sim;
  Alcotest.(check int) "no fire after unsubscribe" 0 !fired

let test_delivery_latency () =
  let rng = Rng.create 7 in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to 19 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let sim = Sim.create () in
  let store = Store.create ~clock:(fun () -> Sim.now sim) ~scheme can in
  let bus = Bus.create ~sim ~latency:(fun ~host:_ ~subscriber:_ -> 25.0) store in
  let delivered_at = ref (-1.0) in
  let _sub =
    Bus.subscribe bus ~subscriber:1 ~region:[||] ~condition:Bus.Any_new_entry
      ~handler:(fun n -> delivered_at := n.Bus.delivered_at)
  in
  Bus.publish bus ~region:[||] ~node:2 ~vector:(vec rng);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "delivered after the modeled latency" 25.0 !delivered_at

let test_multiple_subscribers () =
  let bus, sim, rng = setup ~seed:8 () in
  let fired = Array.make 3 0 in
  for i = 0 to 2 do
    ignore
      (Bus.subscribe bus ~subscriber:i ~region:[||] ~condition:Bus.Any_new_entry
         ~handler:(fun _ -> fired.(i) <- fired.(i) + 1))
  done;
  Bus.publish bus ~region:[||] ~node:9 ~vector:(vec rng);
  Sim.run sim;
  Array.iteri (fun i c -> Alcotest.(check int) (Printf.sprintf "sub %d fired" i) 1 c) fired

(* A handler that unsubscribes another subscription mid-dispatch: the
   victim must not be notified for the event being dispatched (nor later).
   Subscriptions are dispatched most-recent-first, so subscribe the victim
   first and the killer second. *)
let test_unsubscribe_during_dispatch () =
  let bus, sim, rng = setup ~seed:9 () in
  let victim_fired = ref 0 in
  let victim =
    Bus.subscribe bus ~subscriber:2 ~region:[||] ~condition:Bus.Any_new_entry
      ~handler:(fun _ -> incr victim_fired)
  in
  let _killer =
    Bus.subscribe bus ~subscriber:1 ~region:[||] ~condition:Bus.Any_new_entry
      ~handler:(fun _ -> Bus.unsubscribe bus victim)
  in
  Bus.publish bus ~region:[||] ~node:3 ~vector:(vec rng);
  Sim.run sim;
  Alcotest.(check int) "victim silenced by in-flight unsubscribe" 0 !victim_fired;
  Bus.publish bus ~region:[||] ~node:4 ~vector:(vec rng);
  Sim.run sim;
  Alcotest.(check int) "victim stays silent" 0 !victim_fired;
  Alcotest.(check int) "only the killer remains" 1 (Bus.subscription_count bus ~region:[||])

let test_duplicate_subscription () =
  let bus, sim, rng = setup ~seed:10 () in
  let fired = ref 0 in
  let handler _ = incr fired in
  let first =
    Bus.subscribe bus ~subscriber:1 ~region:[||] ~condition:Bus.Any_new_entry ~handler
  in
  let _second =
    Bus.subscribe bus ~subscriber:1 ~region:[||] ~condition:Bus.Any_new_entry ~handler
  in
  Bus.publish bus ~region:[||] ~node:5 ~vector:(vec rng);
  Sim.run sim;
  Alcotest.(check int) "identical subscriptions both fire" 2 !fired;
  Bus.unsubscribe bus first;
  Bus.publish bus ~region:[||] ~node:6 ~vector:(vec rng);
  Sim.run sim;
  Alcotest.(check int) "removing one duplicate leaves the other" 3 !fired

(* Channel-injected delay reorders deliveries: the engine must deliver in
   total-delay order regardless of send order, and delivered_at must carry
   the perturbed time. *)
let test_ordering_under_injected_delay () =
  let rng = Rng.create 11 in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to 19 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let sim = Sim.create () in
  let store = Store.create ~clock:(fun () -> Sim.now sim) ~scheme can in
  (* First message gets +30 ms, second +0: the second overtakes. *)
  let extras = ref [ 30.0; 0.0 ] in
  let channel base =
    match !extras with
    | e :: rest ->
      extras := rest;
      Some (base +. e)
    | [] -> Some base
  in
  let bus = Bus.create ~sim ~latency:(fun ~host:_ ~subscriber:_ -> 10.0) ~channel store in
  let deliveries = ref [] in
  let _sub =
    Bus.subscribe bus ~subscriber:1 ~region:[||] ~condition:Bus.Any_new_entry
      ~handler:(fun n ->
        match n.Bus.event with
        | Bus.Entry_published { entry_node; _ } ->
          deliveries := (entry_node, n.Bus.delivered_at) :: !deliveries
        | _ -> ())
  in
  Bus.publish bus ~region:[||] ~node:7 ~vector:(vec rng);
  Bus.publish bus ~region:[||] ~node:8 ~vector:(vec rng);
  Sim.run sim;
  (match List.rev !deliveries with
  | [ (n1, t1); (n2, t2) ] ->
    Alcotest.(check int) "delayed message overtaken" 8 n1;
    Alcotest.(check (float 1e-9)) "undelayed arrives at base latency" 10.0 t1;
    Alcotest.(check int) "perturbed message arrives last" 7 n2;
    Alcotest.(check (float 1e-9)) "perturbed arrival time" 40.0 t2
  | l -> Alcotest.fail (Printf.sprintf "expected 2 deliveries, got %d" (List.length l)));
  Alcotest.(check int) "both sent" 2 (Bus.sent_count bus);
  Alcotest.(check int) "both delivered" 2 (Bus.delivered_count bus);
  Alcotest.(check int) "none dropped" 0 (Bus.dropped_count bus)

let test_channel_drop () =
  let bus, sim, rng = setup ~seed:12 () in
  ignore bus;
  (* A fresh bus over the same store but with a black-hole channel. *)
  let store = Bus.store bus in
  let dead_bus = Bus.create ~sim ~channel:(fun _ -> None) store in
  let fired = ref 0 in
  let _sub =
    Bus.subscribe dead_bus ~subscriber:1 ~region:[||] ~condition:Bus.Any_new_entry
      ~handler:(fun _ -> incr fired)
  in
  Bus.publish dead_bus ~region:[||] ~node:3 ~vector:(vec rng);
  Sim.run sim;
  Alcotest.(check int) "nothing delivered through a black hole" 0 !fired;
  Alcotest.(check int) "send counted" 1 (Bus.sent_count dead_bus);
  Alcotest.(check int) "drop counted" 1 (Bus.dropped_count dead_bus);
  Alcotest.(check int) "no delivery counted" 0 (Bus.delivered_count dead_bus)

(* ---- digest batching ---- *)

let event_str = function
  | Bus.Entry_published { region; entry_node } ->
    Printf.sprintf "pub[%s]%d" (String.concat "" (List.map string_of_int (Array.to_list region))) entry_node
  | Bus.Entry_departed { region; entry_node } ->
    Printf.sprintf "dep[%s]%d" (String.concat "" (List.map string_of_int (Array.to_list region))) entry_node
  | Bus.Load_changed { region; entry_node; load } ->
    Printf.sprintf "load[%s]%d=%.3f"
      (String.concat "" (List.map string_of_int (Array.to_list region)))
      entry_node load

let test_digest_batches_per_subscriber () =
  let rng = Rng.create 13 in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to 29 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let sim = Sim.create () in
  let store = Store.create ~clock:(fun () -> Sim.now sim) ~scheme can in
  let bus = Bus.create ~sim ~digest_window:50.0 store in
  let per_sub = Array.make 3 [] in
  for s = 0 to 2 do
    ignore
      (Bus.subscribe bus ~subscriber:s ~region:[||] ~condition:Bus.Any_new_entry
         ~handler:(fun n ->
           (match n.Bus.event with
           | Bus.Entry_published { entry_node; _ } ->
             per_sub.(s) <- (entry_node, n.Bus.delivered_at) :: per_sub.(s)
           | _ -> ())))
  done;
  (* five publishes at the same instant: one digest per subscriber *)
  for node = 100 to 104 do
    Bus.publish bus ~region:[||] ~node ~vector:(vec rng)
  done;
  Sim.run sim;
  Alcotest.(check int) "15 notifications sent" 15 (Bus.sent_count bus);
  Alcotest.(check int) "all delivered" 15 (Bus.delivered_count bus);
  Alcotest.(check int) "but only one engine event per subscriber" 3 (Bus.batched_count bus);
  Array.iteri
    (fun s deliveries ->
      let deliveries = List.rev deliveries in
      Alcotest.(check (list int))
        (Printf.sprintf "sub %d gets the digest items in arrival order" s)
        [ 100; 101; 102; 103; 104 ]
        (List.map fst deliveries);
      List.iter
        (fun (_, at) ->
          Alcotest.(check (float 1e-9)) "delivered when the window closes" 50.0 at)
        deliveries)
    per_sub

let test_digest_unsubscribe_before_flush () =
  let bus, sim, rng = setup ~seed:14 () in
  ignore bus;
  let store = Bus.store bus in
  let dbus = Bus.create ~sim ~digest_window:50.0 store in
  let victim_fired = ref 0 and keeper_fired = ref 0 in
  let victim =
    Bus.subscribe dbus ~subscriber:1 ~region:[||] ~condition:Bus.Any_new_entry
      ~handler:(fun _ -> incr victim_fired)
  in
  let _keeper =
    Bus.subscribe dbus ~subscriber:2 ~region:[||] ~condition:Bus.Any_new_entry
      ~handler:(fun _ -> incr keeper_fired)
  in
  Bus.publish dbus ~region:[||] ~node:100 ~vector:(vec rng);
  (* the digest is pending; the victim unsubscribes before it flushes *)
  Bus.unsubscribe dbus victim;
  Sim.run sim;
  Alcotest.(check int) "unsubscribed before the flush: not delivered" 0 !victim_fired;
  Alcotest.(check int) "survivor delivered" 1 !keeper_fired

(* The same scripted op sequence (bursty publishes and departures over a
   lossy, delay-jittering channel) against a bus built with the given
   window.  Returns the delivery log and the bus accounting. *)
let run_script ?digest_window ~seed () =
  let rng = Rng.create seed in
  let can = Can_overlay.create ~dims:2 0 in
  for id = 1 to 29 do
    ignore (Can_overlay.join can id (Point.random rng 2))
  done;
  let sim = Sim.create () in
  let store = Store.create ~clock:(fun () -> Sim.now sim) ~scheme can in
  let k = ref 0 in
  let channel base =
    incr k;
    if !k mod 3 = 0 then None else Some (base +. float_of_int (!k mod 5))
  in
  let bus =
    Bus.create ~sim ~latency:(fun ~host:_ ~subscriber:_ -> 10.0) ~channel ?digest_window store
  in
  let log = ref [] in
  let watch s condition =
    ignore
      (Bus.subscribe bus ~subscriber:s ~region:[||] ~condition ~handler:(fun n ->
           log := (n.Bus.subscriber, event_str n.Bus.event, n.Bus.delivered_at) :: !log))
  in
  for s = 0 to 3 do
    watch s Bus.Any_new_entry
  done;
  watch 9 (Bus.Departure_of 100);
  let next = ref 100 in
  for step = 0 to 19 do
    Sim.run ~until:(float_of_int step *. 20.0) sim;
    match Rng.int rng 3 with
    | 0 | 1 ->
      Bus.publish bus ~region:[||] ~node:!next ~vector:(vec rng);
      incr next
    | _ -> if !next > 100 then Bus.depart bus ~node:(100 + Rng.int rng (!next - 100))
  done;
  Sim.run sim;
  ( List.rev !log,
    (Bus.sent_count bus, Bus.delivered_count bus, Bus.dropped_count bus, Bus.batched_count bus) )

(* The zero-window contract: building the bus with [~digest_window:0.0]
   is byte-for-byte the seed path — same deliveries, same order, same
   times, same accounting, no digests. *)
let test_digest_window_zero_is_seed_path () =
  let seed_log, (s1, d1, x1, b1) = run_script ~seed:42 () in
  let zero_log, (s2, d2, x2, b2) = run_script ~digest_window:0.0 ~seed:42 () in
  Alcotest.(check int) "same sent" s1 s2;
  Alcotest.(check int) "same delivered" d1 d2;
  Alcotest.(check int) "same dropped" x1 x2;
  Alcotest.(check int) "no digests either way" b1 b2;
  Alcotest.(check int) "no digests at window 0" 0 b2;
  Alcotest.(check int) "same delivery count" (List.length seed_log) (List.length zero_log);
  List.iter2
    (fun (sub1, ev1, at1) (sub2, ev2, at2) ->
      Alcotest.(check int) "same subscriber" sub1 sub2;
      Alcotest.(check string) "same event" ev1 ev2;
      Alcotest.(check (float 1e-9)) "same delivery time" at1 at2)
    seed_log zero_log

let qcheck_digest_same_multiset =
  QCheck.Test.make ~name:"digest window preserves the delivered multiset" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 1 120))
    (fun (seed, window) ->
      let seed_log, (s1, d1, x1, _) = run_script ~seed () in
      let digest_log, (s2, d2, x2, _) =
        run_script ~digest_window:(float_of_int window) ~seed ()
      in
      let multiset log = List.sort compare (List.map (fun (s, e, _) -> (s, e)) log) in
      s1 = s2 && d1 = d2 && x1 = x2 && multiset seed_log = multiset digest_log)

(* Non-finite windows are rejected: an infinite window would never flush
   a digest. *)
let test_rejects_non_finite_window () =
  let bus, _, _ = setup ~seed:11 () in
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun w ->
      let name = Printf.sprintf "window %F" w in
      rejects ("create, " ^ name) (fun () -> ignore (Bus.create ~digest_window:w (Bus.store bus)));
      rejects ("set_digest_window, " ^ name) (fun () -> Bus.set_digest_window bus w))
    [ Float.infinity; Float.neg_infinity; Float.nan; -1.0 ];
  Alcotest.(check (float 0.0)) "window unchanged" 0.0 (Bus.digest_window bus)

(* Random subscribe/unsubscribe sequences against a plain-list model:
   per region, the live subscriptions newest first, an unsubscribe
   filtering its subscription out, and every event tested against every
   live subscription of its region.  All four conditions and all three
   events are drawn.  Delivery is synchronous, so a handler that
   unsubscribes another subscription acts inside the dispatch; the
   victims include already-removed subscriptions. *)
let qcheck_bus_matches_list_model =
  QCheck.Test.make ~name:"subscribe/unsubscribe = plain-list model, order and counts" ~count:200
    QCheck.(pair (int_range 0 10_000) (int_range 20 200))
    (fun (seed, steps) ->
      let rng = Rng.create seed in
      let can = Can_overlay.create ~dims:2 0 in
      for id = 1 to 7 do
        ignore (Can_overlay.join can id (Point.random rng 2))
      done;
      let bus = Bus.create (Store.create ~scheme can) in
      let regions = [| [||]; [| 1 |] |] in
      (* Nodes 100, 101, ... are published in turn, each into one region
         and with one vector; [gone] marks the departed. *)
      let placed = Hashtbl.create 64 and gone = Hashtbl.create 64 in
      let next_node = ref 100 in
      let some_node () = 100 + Rng.int rng (!next_node - 100 + 3) in
      let condition () =
        match Rng.int rng 4 with
        | 0 -> Bus.Any_new_entry
        | 1 -> Bus.Closer_than (vec rng, Rng.float rng 150.0)
        | 2 -> Bus.Departure_of (some_node ())
        | _ -> Bus.Load_above { watched = some_node (); threshold = Rng.float rng 1.0 }
      in
      (* subscription [i]: its bus handle, region index, condition, and
         the label it unsubscribes when it fires, if any *)
      let subs = ref [||] in
      let model = Array.make 2 [] in
      let active = Hashtbl.create 64 in
      let log = ref [] and model_log = ref [] in
      let model_unsubscribe i =
        if Hashtbl.mem active i then begin
          Hashtbl.remove active i;
          let _, r, _, _ = !subs.(i) in
          model.(r) <- List.filter (fun j -> j <> i) model.(r)
        end
      in
      let subscribe r =
        let i = Array.length !subs in
        let victim = if i > 0 && Rng.chance rng 0.3 then Some (Rng.int rng i) else None in
        let handler _ =
          log := i :: !log;
          Option.iter (fun v -> let h, _, _, _ = !subs.(v) in Bus.unsubscribe bus h) victim
        in
        let condition = condition () in
        let h = Bus.subscribe bus ~subscriber:i ~region:regions.(r) ~condition ~handler in
        subs := Array.append !subs [| (h, r, condition, victim) |];
        Hashtbl.replace active i ();
        model.(r) <- i :: model.(r)
      in
      (* The model's dispatch: region [r]'s live subscriptions newest
         first, read once, a victim leaving as its killer fires. *)
      let dispatch r matches =
        List.iter
          (fun i ->
            let _, _, condition, victim = !subs.(i) in
            if Hashtbl.mem active i && matches condition then begin
              model_log := i :: !model_log;
              Option.iter model_unsubscribe victim
            end)
          model.(r)
      in
      let publish r =
        let node = !next_node and vector = vec rng in
        incr next_node;
        Hashtbl.replace placed node (r, vector);
        Bus.publish bus ~region:regions.(r) ~node ~vector;
        dispatch r (function
          | Bus.Any_new_entry -> true
          | Bus.Closer_than (mine, d) -> Landmark.Landmarks.vector_dist mine vector <= d
          | Bus.Departure_of _ | Bus.Load_above _ -> false)
      in
      let live_node () =
        let live =
          Hashtbl.fold (fun n _ acc -> if Hashtbl.mem gone n then acc else n :: acc) placed []
        in
        match List.sort compare live with
        | [] -> None
        | l -> Some (List.nth l (Rng.int rng (List.length l)))
      in
      let depart () =
        Option.iter
          (fun node ->
            let r, _ = Hashtbl.find placed node in
            Hashtbl.replace gone node ();
            Bus.depart bus ~node;
            dispatch r (function
              | Bus.Departure_of w -> w = node
              | Bus.Any_new_entry | Bus.Closer_than _ | Bus.Load_above _ -> false))
          (live_node ())
      in
      let load () =
        Option.iter
          (fun node ->
            let r, _ = Hashtbl.find placed node in
            let load = Rng.float rng 1.0 in
            Bus.update_load bus ~region:regions.(r) ~node ~load ~capacity:1.0;
            dispatch r (function
              | Bus.Load_above { watched; threshold } -> watched = node && load > threshold
              | Bus.Any_new_entry | Bus.Closer_than _ | Bus.Departure_of _ -> false))
          (live_node ())
      in
      let ok = ref true in
      for _ = 1 to steps do
        let r = Rng.int rng 2 in
        (match Rng.int rng 8 with
        | 0 | 1 | 2 -> subscribe r
        | 3 | 4 ->
          let n = Array.length !subs in
          if n > 0 then begin
            let i = Rng.int rng n in
            let h, _, _, _ = !subs.(i) in
            Bus.unsubscribe bus h;
            model_unsubscribe i
          end
        | 5 -> publish r
        | 6 -> depart ()
        | _ -> load ());
        ok :=
          !ok && !log = !model_log
          && Array.for_all
               (fun r -> Bus.subscription_count bus ~region:regions.(r) = List.length model.(r))
               [| 0; 1 |]
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "any-new-entry condition" `Quick test_any_new_entry;
    Alcotest.test_case "region isolation" `Quick test_region_isolation;
    Alcotest.test_case "closer-than condition" `Quick test_closer_than;
    Alcotest.test_case "load-above condition" `Quick test_load_above;
    Alcotest.test_case "departure condition" `Quick test_departure;
    Alcotest.test_case "unsubscribe" `Quick test_unsubscribe;
    Alcotest.test_case "delivery latency" `Quick test_delivery_latency;
    Alcotest.test_case "multiple subscribers" `Quick test_multiple_subscribers;
    Alcotest.test_case "unsubscribe during dispatch" `Quick test_unsubscribe_during_dispatch;
    Alcotest.test_case "duplicate subscription" `Quick test_duplicate_subscription;
    Alcotest.test_case "ordering under injected delay" `Quick test_ordering_under_injected_delay;
    Alcotest.test_case "channel drop" `Quick test_channel_drop;
    Alcotest.test_case "digest batches per subscriber" `Quick test_digest_batches_per_subscriber;
    Alcotest.test_case "digest skips early unsubscriber" `Quick test_digest_unsubscribe_before_flush;
    Alcotest.test_case "digest window 0 = seed path" `Quick test_digest_window_zero_is_seed_path;
    QCheck_alcotest.to_alcotest qcheck_digest_same_multiset;
    Alcotest.test_case "non-finite digest window rejected" `Quick test_rejects_non_finite_window;
    QCheck_alcotest.to_alcotest qcheck_bus_matches_list_model;
  ]
