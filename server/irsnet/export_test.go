package irsnet

// NewClientDial is NewClient with the connection dial replaced, so a test
// can stand in for a node that never answers.
var NewClientDial = newClient
