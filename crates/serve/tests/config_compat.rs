//! Compatibility contract for the operator-facing JSON config, the
//! [`FaultPlan`] chaos plan (including its nested disk section): a plan
//! round-trips through its own JSON losslessly, and a stray key — a typo
//! in a chaos plan silently neutering the fault it meant to enable — is
//! rejected with an error that names it. (The resilience profile has no
//! JSON form: it comes from the serving flags alone.)

use vup_serve::{DiskFaultPlan, FaultPlan};

#[test]
fn fault_plan_with_disk_section_round_trips_through_json() {
    let plan = FaultPlan {
        seed: 7,
        fit_error_rate: 0.25,
        disk: Some(DiskFaultPlan {
            torn_write_rate: 0.3,
            torn_write_byte: 24,
            bit_flip_rate: 0.25,
            io_error_rate: 0.3,
            io_error_attempts: 2,
            full_disk_after_bytes: Some(4_096),
        }),
        ..FaultPlan::default()
    };
    let parsed = FaultPlan::from_json(&plan.to_json()).unwrap();
    assert_eq!(parsed, plan);
    assert!(parsed.disk_faults().is_some());
}

/// Injects a stray `"key": value` pair at the top of a JSON object.
fn with_stray_key(json: &str, key: &str) -> String {
    json.replacen('{', &format!("{{\n  \"{key}\": 1,"), 1)
}

#[test]
fn unknown_top_level_fault_plan_keys_are_rejected_by_name() {
    let err = FaultPlan::from_json(&with_stray_key(
        &FaultPlan::default().to_json(),
        "fit_eror_rate",
    ))
    .expect_err("a typoed key must not parse");
    let message = err.to_string();
    assert!(message.contains("unknown field"), "{message}");
    assert!(message.contains("fit_eror_rate"), "{message}");
}

#[test]
fn unknown_disk_section_keys_are_rejected_by_name() {
    let plan = FaultPlan {
        disk: Some(DiskFaultPlan {
            torn_write_rate: 0.3,
            ..DiskFaultPlan::default()
        }),
        ..FaultPlan::default()
    };
    // Typo one key *inside* the nested disk object only.
    let text = plan.to_json().replace("torn_write_rate", "torn_rate");
    let err = FaultPlan::from_json(&text).expect_err("a typoed disk key must not parse");
    let message = err.to_string();
    assert!(message.contains("unknown field"), "{message}");
    assert!(message.contains("torn_rate"), "{message}");
    assert!(message.contains("DiskFaultPlan"), "{message}");
}

#[test]
fn absent_optional_sections_parse_as_none_not_as_errors() {
    // Rejecting unknown keys must not confuse "absent" with "unknown":
    // a plan written before the disk section existed still parses.
    let legacy = FaultPlan {
        seed: 3,
        fit_error_rate: 0.5,
        ..FaultPlan::default()
    };
    let text = legacy.to_json();
    // Cut `,"disk": null` (the last field) out of the serialized form.
    let key = text.find("\"disk\"").unwrap();
    let comma = text[..key].rfind(',').unwrap();
    let end = key + text[key..].find("null").unwrap() + "null".len();
    let stripped = format!("{}{}", &text[..comma], &text[end..]);
    let plan = FaultPlan::from_json(&stripped).unwrap();
    assert_eq!(plan.seed, 3);
    assert!(plan.disk.is_none());
    assert!(plan.disk_faults().is_none());
}
