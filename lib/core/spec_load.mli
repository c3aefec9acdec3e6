(** The builtin machine specs and the host side of the [.vspec] front end.

    The five machines the engine instantiates are defined only by their
    sources in [lib/core/specs/*.vspec], embedded in the binary, parsed
    and checked once at start-up.  Each engine elaborates them under its
    own {!Config.t}, which binds every [param] to the Config field of the
    same name.  The machines hold no host code. *)

val known_machines : string list
(** Machine names the engine instantiates — valid [sync] targets and the
    only names an override may use. *)

val params : Config.t -> Spec.Elaborate.params
(** The param bindings under [config]: the eleven params
    [invite_flood_threshold], [invite_flood_window], [rtp_flood_threshold],
    [rtp_flood_window], [spam_seq_gap], [spam_reorder_tolerance],
    [spam_ts_gap], [spam_silence_ts_gap], [drdos_threshold],
    [drdos_window] and [bye_inflight_timer], each the Config field of the
    same name. *)

val sources : (string * string) list
(** CLI key (e.g. ["media-spam"]) to embedded [.vspec] source, in the
    order the CLI lists the machines. *)

val source_for : string -> string option
(** Accepts either the CLI key ["media-spam"] or the machine name
    ["MEDIA_SPAM"]. *)

val builtins : Config.t -> (string * (Efsm.Machine.spec * Efsm.Ir.decl list)) list
(** CLI key to the builtin elaborated under [config], with its declared
    variable domains for the verifier. *)

val spec : Config.t -> string -> Efsm.Machine.spec
(** The builtin machine [name] (key or machine name) elaborated under
    [config].  @raise Invalid_argument on an unknown name. *)

val load_files :
  Config.t -> string list -> ((string * Efsm.Machine.spec) list, string) result
(** Loads override machines for [--spec].  Every loaded machine must
    name a member of {!known_machines} (the engine only instantiates
    those); front-end diagnostics render into the [Error] message with
    caret snippets.  No verifier runs: [vids-cli lint] is the check. *)
