(** Experiment output as a view of the metrics registry.

    An experiment prints a list of {!block}s: aligned tables and single
    lines.  Each numeric cell is declared once, with the instrument that
    holds its number, and {!render} prints it by reading that instrument
    back from {!Engine.Metrics.global}; {!of_metrics} is the same printer
    reading a parsed {!Engine.Metrics.to_json} snapshot instead. *)

type cell

val text : string -> cell
(** A cell printed as given (names, labels, settings). *)

val gauge : labels:Engine.Metrics.labels -> string -> (float -> string) -> float -> cell
(** [gauge ~labels name fmt v] sets the gauge [name] under [labels] to
    [v] and prints that gauge with [fmt]. *)

(** A counter's count, or a statistic of a histogram's summary. *)
type stat = Count | Mean | P50 | P95 | P99 | Max

val named : labels:Engine.Metrics.labels -> string -> stat -> (float -> string) -> cell
(** [named ~labels name stat fmt] prints [stat] of the counter or
    histogram [name] under [labels], written elsewhere, with [fmt]. *)

val cat : cell list -> cell
(** One cell printed as its parts side by side. *)

type t
(** A table. *)

val create : title:string -> columns:string list -> t

val add_row : t -> cell list -> unit
(** Raises [Invalid_argument] unless the row has one cell per column, or
    when a gauge cell declares another value for an instrument that a
    cell of the table already declared. *)

type block

val table : t -> block
(** A blank line, the title, the header and the rows. *)

val line : cell list -> block
(** One line of cells side by side. *)

val note : ('a, unit, string, block) format4 -> 'a
(** A line of text, printf-style. *)

val render : Format.formatter -> block list -> unit
(** Print the blocks.  Raises [Invalid_argument] when a cell's
    instrument is missing. *)

val of_metrics : Prelude.Json.t -> Format.formatter -> block list -> unit
(** {!render} reading every numeric cell from a snapshot, where a
    non-finite float ([null]) reads as nan. *)

val fixed : int -> float -> string
(** [fixed digits v] is ["%.*f"]; ["-"] for nan. *)

val cell_f : float -> string
(** [fixed 3]: ["inf"] for infinity, ["-"] for nan. *)

val yes_no : float -> string
(** ["yes"] for 1.0, ["NO"] otherwise. *)
