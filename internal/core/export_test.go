package core

// CodesOut gives the external tests codesOut, the modelio v6 layout.
var CodesOut = codesOut
