(** Publish/subscribe over the global soft-state (paper §5.2).

    Nodes subscribe to the map regions backing their routing-table entries
    and state the condition under which they want to be told — "a node
    joined the zone", "a node closer to me appeared", "my neighbor's load
    crossed a threshold", "my neighbor departed".  Store mutations routed
    through the bus evaluate the region's subscriptions and deliver
    matching notifications, after a delivery latency, through the
    discrete-event engine (notifications ride the overlay in the paper;
    the latency function models that dissemination cost).

    An event visits only the subscriptions its kind can match: a publish
    walks the region's [Any_new_entry] and [Closer_than] watches, a
    departure or a load change only the watchers of that node.  Matches
    are handed to the channel newest subscription first. *)

type event =
  | Entry_published of { region : int array; entry_node : int }
  | Entry_departed of { region : int array; entry_node : int }
  | Load_changed of { region : int array; entry_node : int; load : float }

type condition =
  | Any_new_entry
      (** fire on every publish of a {e new} node in the region (refreshes
          of an existing entry do not fire) *)
  | Closer_than of float array * float
      (** [Closer_than (my_vector, d)]: a new entry whose landmark vector
          is within [d] of mine — the demand-driven trigger for neighbor
          re-selection *)
  | Load_above of { watched : int; threshold : float }
      (** the watched node reports load above the threshold (QoS, §6) *)
  | Departure_of of int  (** the watched node leaves the region *)

type notification = { subscriber : int; event : event; delivered_at : float }

type subscription

type t

val create :
  ?metrics:Engine.Metrics.t ->
  ?labels:Engine.Metrics.labels ->
  ?trace:Engine.Trace.t ->
  ?sim:Engine.Sim.t ->
  ?latency:(host:int -> subscriber:int -> float) ->
  ?channel:(float -> float option) ->
  ?digest_window:float ->
  Softstate.Store.t ->
  t
(** Wrap a store.  Without [sim], notifications are delivered
    synchronously at time 0; with it, they are scheduled [latency]
    milliseconds ahead (default latency 0).

    [channel] models the delivery medium: it receives the base delay and
    returns the total delay, or [None] to drop the notification outright
    (fault injection — see {!Engine.Faults.perturb}).  Default: deliver
    with the base delay.

    [digest_window] (default 0, must be finite and >= 0, else
    [Invalid_argument]) batches notification
    delivery: with a positive window and a [sim], every notification for
    the same (subscriber, region) arriving within the window is coalesced
    into a single scheduled engine event — a {e digest} — delivered
    [opening notification's channel delay + window] after the digest
    opens, with the digest's items handed to their handlers in arrival
    order.  The channel is still consulted per notification, so drop
    statistics are unchanged; a dropped notification simply never enters
    a digest.  At window 0 (or without a [sim]) the bus behaves exactly
    like the un-batched path: one scheduled event per notification, same
    delivery multiset and order.

    With [metrics], the bus maintains [notify_sent] / [notify_delivered]
    / [notify_dropped] counters (plus any [labels]) mirroring
    {!sent_count} / {!delivered_count} / {!dropped_count}, a
    [notify_batched] counter (digests flushed, = scheduled delivery
    events on the digest path) and a [notify_digest_size] histogram
    (notifications per digest).  With [trace], every notification (or
    digest) that survives the channel emits a [Notify] span (node = map
    host, peer = subscriber, dur = delivery delay) whose
    [{change; entry; region}] payload names the event's kind, subject
    entry and region — the fields {!Engine.Repair} matches to correlate
    repair traffic with injected faults (a digest's span carries its
    opening notification's payload). *)

val store : t -> Softstate.Store.t

val sent_count : t -> int
(** Notifications handed to the channel so far (delivered + in flight +
    dropped) — the maintenance traffic a churn experiment accounts. *)

val delivered_count : t -> int
(** Notifications actually delivered to live subscriptions. *)

val dropped_count : t -> int
(** Notifications the channel decided to drop. *)

val batched_count : t -> int
(** Digests flushed so far — the number of scheduled delivery events the
    digest path used where the un-batched path would have scheduled one
    per notification.  Always 0 at digest window 0. *)

val digest_window : t -> float
(** The virtual-time coalescing window currently in force. *)

val set_digest_window : t -> float -> unit
(** Change the coalescing window (must be finite and >= 0, else
    [Invalid_argument]; 0 reverts to per-notification delivery).  Takes effect for digests {e opened} after
    the call — digests already open flush at their original schedule, so
    a mid-run re-tune (the adaptive maintenance controller) never
    reorders deliveries that were already scheduled. *)

val subscribe :
  t ->
  subscriber:int ->
  region:int array ->
  condition:condition ->
  handler:(notification -> unit) ->
  subscription

val unsubscribe : t -> subscription -> unit
(** Deactivate a subscription: it receives nothing from now on, including
    notifications already in flight or waiting in a digest.  Unsubscribing
    twice is a no-op.  A region indexes its subscriptions by the events
    they can match.  An [Any_new_entry] or [Closer_than] subscription is
    only marked dead, in amortised O(1): the region's publish array is
    compacted in place, order kept, once its dead outnumber its live and
    no dispatch is walking it.  A [Departure_of] or [Load_above]
    subscription leaves its watched node's list at once, in time linear
    in that list.  A region with no live subscription left is dropped. *)

val subscription_count : t -> region:int array -> int
(** Active subscriptions on a region (a stored count, O(1)). *)

val publish : t -> region:int array -> node:int -> vector:float array -> unit
(** {!Softstate.Store.publish} + condition evaluation. *)

val publish_all : t -> span_bits:int -> node:int -> vector:float array -> unit

val update_load : t -> region:int array -> node:int -> load:float -> capacity:float -> unit

val depart : t -> node:int -> unit
(** Proactive departure: unpublish the node from every region and notify
    the matching subscribers of each. *)

val expire_sweep : t -> int
(** TTL sweep through the bus: purge expired entries
    ({!Softstate.Store.sweep_expired}) and notify each region's
    [Departure_of] watchers — how crashed nodes whose state was never
    retracted are eventually noticed.  Returns the purge count. *)

val expire_sweep_shard : t -> int -> int
(** Like {!expire_sweep} but sweeps a single store shard
    ({!Softstate.Store.sweep_shard}) — the per-shard unit of maintenance
    work, so independently-scheduled shard sweeps still turn expiry into
    departure notifications. *)
