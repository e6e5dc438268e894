//! Reading the programs' outputs: `divlab campaign` stdout and divd
//! campaign reports (both end in `CampaignReport::render`'s text).

/// The facts the output checks need from one campaign report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Declared trial count.
    pub trials: u64,
    /// Trials with an outcome.
    pub completed: u64,
    /// Trials whose every attempt panicked.
    pub panicked: u64,
    /// `steps.simulated`, summed over all outcomes.
    pub steps: u64,
    /// Consensus winners and how often each won.
    pub winners: Vec<(i64, u64)>,
}

impl Summary {
    /// Parses a report (or any text containing one).
    ///
    /// # Errors
    ///
    /// When the header or outcome lines are missing or malformed.
    pub fn parse(text: &str) -> Result<Summary, String> {
        let bad = |what: &str| format!("report has no well-formed {what} line");
        let header = line_after(text, "campaign master=").ok_or_else(|| bad("campaign"))?;
        let trials = field(header, "trials").ok_or_else(|| bad("campaign"))?;
        let completed = field(header, "completed").ok_or_else(|| bad("campaign"))?;
        let outcomes = line_after(text, "outcomes ").ok_or_else(|| bad("outcomes"))?;
        let panicked = field(outcomes, "panicked").ok_or_else(|| bad("outcomes"))?;
        let steps = line_after(text, "counter steps.simulated = ")
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        let winners = line_after(text, "winners ")
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|kv| {
                        let (w, n) = kv.split_once('=')?;
                        Some((w.parse().ok()?, n.parse().ok()?))
                    })
                    .collect()
            })
            .unwrap_or_default();
        Ok(Summary {
            trials,
            completed,
            panicked,
            steps,
            winners,
        })
    }

    /// Converged trials whose winner is outside `{lower, upper}`, and all
    /// converged trials.
    pub fn outside(&self, lower: i64, upper: i64) -> (u64, u64) {
        let total = self.winners.iter().map(|(_, n)| n).sum();
        let outside = self
            .winners
            .iter()
            .filter(|(w, _)| *w != lower && *w != upper)
            .map(|(_, n)| n)
            .sum();
        (outside, total)
    }
}

/// The report part of `divlab campaign` stdout (from its `campaign` line
/// on), which is what an in-process `CampaignReport::render` produces.
pub fn section(stdout: &str) -> &str {
    stdout
        .find("campaign master=")
        .map_or("", |at| &stdout[at..])
}

/// Theorem 2's predicted pair `{⌊c⌋, ⌈c⌉}` as `divlab` prints it.
pub fn prediction(stdout: &str) -> Option<(i64, i64)> {
    let line = line_after(stdout, "Theorem 2 prediction: ")?;
    let mut words = line.split_whitespace();
    let lower = words.next()?.parse().ok()?;
    let upper = words.nth(2)?.trim_end_matches(',').parse().ok()?;
    Some((lower, upper))
}

fn line_after<'a>(text: &'a str, prefix: &str) -> Option<&'a str> {
    text.lines().find_map(|l| l.strip_prefix(prefix))
}

fn field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STDOUT: &str = "graph with 2000 vertices and 8000 edges; initial average c = 4.9530\n\
        Theorem 2 prediction: 4 w.p. 0.047, 5 w.p. 0.953\n\
        campaign master=5 trials=256 completed=256\n\
        outcomes converged=256 two-adjacent=0 timeout=0 panicked=0\n\
        winners 4=13 5=240 6=3\n\
        steps-to-consensus mean=1450077.4 min=109051 max=9154987\n\
        metrics\n\
        counter outcomes.converged = 256\n\
        counter steps.simulated = 371219813\n";

    #[test]
    fn parses_a_divlab_campaign() {
        let s = Summary::parse(STDOUT).unwrap();
        assert_eq!((s.trials, s.completed, s.panicked), (256, 256, 0));
        assert_eq!(s.steps, 371_219_813);
        assert_eq!(s.winners, vec![(4, 13), (5, 240), (6, 3)]);
        assert_eq!(s.outside(4, 5), (3, 256));
        assert_eq!(prediction(STDOUT), Some((4, 5)));
        assert!(section(STDOUT).starts_with("campaign master=5"));
    }

    #[test]
    fn rejects_text_without_a_report() {
        assert!(Summary::parse("divlab: bad --graph\n").is_err());
        assert_eq!(section("nothing"), "");
        assert_eq!(prediction("nothing"), None);
    }
}
