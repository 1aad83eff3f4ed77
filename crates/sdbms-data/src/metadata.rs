//! SUBJECT-style meta-data graph.
//!
//! §2.3: "one can view the meta-data as residing in a separate database
//! with its own 'data model'… The SUBJECT system has made some
//! important first steps… A user views the meta-data as a graph in
//! which nodes represent attributes. Additional, 'higher-level', nodes
//! represent generalizations of lower-level nodes. A user enters the
//! system at a fairly high level, navigating… down to the level of
//! desired detail. SUBJECT keeps track of the path followed by the user
//! and at the end of the session can generate requests to the DBMS for
//! the view described by his path."
//!
//! [`MetadataGraph`] is that graph; [`NavigationSession`] records a
//! walk and emits a [`ViewRequest`] — the list of data sets and
//! attributes the walk touched — which `sdbms-core` turns into a view
//! materialization.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::{DataError, Result};

/// What a graph node stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A generalization / topic grouping lower-level nodes
    /// (e.g. "Demographics").
    Topic,
    /// A data set in the raw database.
    DataSet {
        /// Name of the data set in the raw database.
        dataset: String,
    },
    /// One attribute of a data set.
    Attribute {
        /// Name of the data set.
        dataset: String,
        /// Attribute within the data set.
        attribute: String,
    },
}

/// A node in the meta-data graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Unique node name.
    pub name: String,
    /// What the node stands for.
    pub kind: NodeKind,
    /// Human description shown during navigation.
    pub description: String,
}

/// The meta-data graph: nodes linked parent → child, acyclic.
#[derive(Debug, Clone, Default)]
pub struct MetadataGraph {
    nodes: BTreeMap<String, Node>,
    children: BTreeMap<String, BTreeSet<String>>,
    parents: BTreeMap<String, BTreeSet<String>>,
}

impl MetadataGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node. Re-adding an existing name replaces its kind and
    /// description but keeps its edges (graph update, §2.3 "primitive
    /// operations that enable management of the graph").
    pub fn add_node(&mut self, name: &str, kind: NodeKind, description: &str) {
        self.nodes.insert(
            name.to_string(),
            Node {
                name: name.to_string(),
                kind,
                description: description.to_string(),
            },
        );
    }

    /// Link `parent` → `child`. Rejects unknown nodes and edges that
    /// would create a cycle.
    pub fn add_edge(&mut self, parent: &str, child: &str) -> Result<()> {
        if !self.nodes.contains_key(parent) {
            return Err(DataError::NoSuchNode(parent.to_string()));
        }
        if !self.nodes.contains_key(child) {
            return Err(DataError::NoSuchNode(child.to_string()));
        }
        if parent == child || self.reachable(child, parent) {
            return Err(DataError::BadEdge(format!(
                "edge {parent} -> {child} would create a cycle"
            )));
        }
        self.children
            .entry(parent.to_string())
            .or_default()
            .insert(child.to_string());
        self.parents
            .entry(child.to_string())
            .or_default()
            .insert(parent.to_string());
        Ok(())
    }

    fn reachable(&self, from: &str, to: &str) -> bool {
        let mut stack = vec![from.to_string()];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n.clone()) {
                continue;
            }
            if let Some(kids) = self.children.get(&n) {
                stack.extend(kids.iter().cloned());
            }
        }
        false
    }

    /// The node named `name`.
    pub fn node(&self, name: &str) -> Result<&Node> {
        self.nodes
            .get(name)
            .ok_or_else(|| DataError::NoSuchNode(name.to_string()))
    }

    /// Children of `name`, sorted.
    pub fn children_of(&self, name: &str) -> Result<Vec<&Node>> {
        self.node(name)?;
        Ok(self
            .children
            .get(name)
            .into_iter()
            .flatten()
            .map(|n| &self.nodes[n])
            .collect())
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Start a navigation session at a root or any named node.
    pub fn navigate_from(&self, start: &str) -> Result<NavigationSession<'_>> {
        self.node(start)?;
        Ok(NavigationSession {
            graph: self,
            path: vec![start.to_string()],
        })
    }
}

/// A recorded walk through the graph (SUBJECT's session log).
#[derive(Debug)]
pub struct NavigationSession<'g> {
    graph: &'g MetadataGraph,
    path: Vec<String>,
}

impl NavigationSession<'_> {
    /// The node currently under the cursor.
    #[must_use]
    pub fn current(&self) -> &Node {
        // lint: allow(no-panic): path starts with the root node and ascend() refuses to pop the last element
        &self.graph.nodes[self.path.last().expect("path never empty")]
    }

    /// The walked path so far.
    #[must_use]
    pub fn path(&self) -> &[String] {
        &self.path
    }

    /// Descend to a child of the current node.
    pub fn descend(&mut self, child: &str) -> Result<&Node> {
        let cur = self.current().name.clone();
        let kids = self.graph.children.get(&cur);
        if !kids.is_some_and(|k| k.contains(child)) {
            return Err(DataError::BadEdge(format!(
                "{child} is not a child of {cur}"
            )));
        }
        self.path.push(child.to_string());
        Ok(self.current())
    }

    /// Go back up one step (no-op at the start).
    pub fn ascend(&mut self) {
        if self.path.len() > 1 {
            self.path.pop();
        }
    }

    /// Generate the view request this walk describes: every data set
    /// and attribute node on (or below the deepest topic of) the path.
    #[must_use]
    pub fn view_request(&self) -> ViewRequest {
        let mut req = ViewRequest::default();
        for name in &self.path {
            match &self.graph.nodes[name].kind {
                NodeKind::Topic => {}
                NodeKind::DataSet { dataset } => {
                    req.datasets.insert(dataset.clone());
                }
                NodeKind::Attribute { dataset, attribute } => {
                    req.datasets.insert(dataset.clone());
                    req.attributes
                        .entry(dataset.clone())
                        .or_default()
                        .insert(attribute.clone());
                }
            }
        }
        req
    }
}

/// What a navigation session asks the DBMS to materialize.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewRequest {
    /// Data sets touched by the walk.
    pub datasets: BTreeSet<String>,
    /// Attributes selected per data set; an empty set means "all".
    pub attributes: BTreeMap<String, BTreeSet<String>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_graph() -> MetadataGraph {
        let mut g = MetadataGraph::new();
        g.add_node("Demographics", NodeKind::Topic, "population topics");
        g.add_node("Economics", NodeKind::Topic, "income topics");
        g.add_node(
            "census",
            NodeKind::DataSet {
                dataset: "census".into(),
            },
            "1980 census sample",
        );
        g.add_node(
            "census.AGE",
            NodeKind::Attribute {
                dataset: "census".into(),
                attribute: "AGE".into(),
            },
            "age in years",
        );
        g.add_node(
            "census.INCOME",
            NodeKind::Attribute {
                dataset: "census".into(),
                attribute: "INCOME".into(),
            },
            "annual income",
        );
        g.add_edge("Demographics", "census").unwrap();
        g.add_edge("census", "census.AGE").unwrap();
        g.add_edge("census", "census.INCOME").unwrap();
        g.add_edge("Economics", "census.INCOME").unwrap();
        g
    }

    #[test]
    fn children_of_lists_direct_children() {
        let g = demo_graph();
        let kids = g.children_of("census").unwrap();
        assert_eq!(kids.len(), 2);
    }

    #[test]
    fn cycles_rejected() {
        let mut g = demo_graph();
        assert!(g.add_edge("census.AGE", "Demographics").is_err());
        assert!(g.add_edge("census", "census").is_err());
        assert!(g.add_edge("census", "nonexistent").is_err());
    }

    #[test]
    fn navigation_records_path_and_builds_request() {
        let g = demo_graph();
        let mut s = g.navigate_from("Demographics").unwrap();
        s.descend("census").unwrap();
        s.descend("census.AGE").unwrap();
        assert_eq!(s.path(), &["Demographics", "census", "census.AGE"]);
        s.ascend();
        s.descend("census.INCOME").unwrap();
        let req = s.view_request();
        assert!(req.datasets.contains("census"));
        let attrs = &req.attributes["census"];
        assert!(attrs.contains("INCOME"));
        assert!(
            !attrs.contains("AGE"),
            "AGE was backed out of and is not on the final path"
        );
    }

    #[test]
    fn descend_rejects_non_children() {
        let g = demo_graph();
        let mut s = g.navigate_from("Economics").unwrap();
        assert!(s.descend("census").is_err());
        s.descend("census.INCOME").unwrap();
        assert_eq!(s.current().name, "census.INCOME");
    }

    #[test]
    fn ascend_at_root_is_noop() {
        let g = demo_graph();
        let mut s = g.navigate_from("Demographics").unwrap();
        s.ascend();
        assert_eq!(s.current().name, "Demographics");
    }

    #[test]
    fn multiple_parents_allowed() {
        let g = demo_graph();
        // census.INCOME is reachable from both Demographics and
        // Economics — a DAG, not a tree.
        let mut s1 = g.navigate_from("Economics").unwrap();
        s1.descend("census.INCOME").unwrap();
        let r = s1.view_request();
        assert!(r.datasets.contains("census"));
    }
}
